// Package config holds the simulated system configurations: the 32-core
// data-center SoC of the paper's Table III and the 4×-scaled 8-core
// system used for the memcached experiment (Section IV-E). Configurations
// are plain data, built in code and validated before a system is built.
//
// Main entry points: Default32 and Scaled8 return the two paper
// configurations; System.Validate rejects inconsistent geometry before
// soc.Build will accept it. The Kernel field is the one execution
// setting: empty runs the event-driven kernel, KernelCycle the
// reference loop tests compare it against — it never changes a
// simulated result (see DESIGN.md, "Event-driven kernel").
package config
