// Package soc assembles the full simulated machine: tiles (core + private
// L2 + source regulator), shared L3 slices, the mesh interconnect, and
// the memory controllers with their saturation monitors and priority
// arbiters (the paper's Figure 2 system, Sections II-III). It owns the
// tick ordering, the epoch heartbeat with the wired-OR SAT signal, and
// the flow control that makes requests queue at the last-level cache when
// memory-controller front ends fill up — the structural condition the
// paper's source-vs-target argument rests on.
//
// A tile allocates a private-cache frame for a miss only when it also
// takes an MSHR: an access that would miss both private levels while the
// MSHR table is full is refused before it touches any cache state, so
// every load pays for its line with a memory read, and a dirty victim the
// allocation displaces always leaves for the L3.
//
// The package wires the machine onto the kernel (events.go): the epoch
// queue, the modeled network, each controller with its front door, each
// L3 slice and each tile register as separate components, every
// cross-component push wakes its target, and a cycle dispatches only the
// due components in the canonical order dispatchEvents writes down. The
// reference loop that config.KernelCycle selects, and the differential
// tests compare against, dispatches every component every cycle in the
// same order. A controller and its front door are due when
// either can act (an arrival, a free front-end slot for a parked
// request, the controller's next issue slot); every state change of the
// door happens inside its own tick, so the refusals of a sleeping span
// replay exactly in FastForward. A tile is due on a response, a pacer
// grant for a queued miss, its watchdog deadline or its core's next
// event.
//
// Main entry points: New constructs a System from a config.System;
// System.Warmup/Run drive it; System.Metrics, ClassIPC, and the
// latency/occupancy accessors feed the exp package. The public root
// package pabst re-exports the small surface the CLIs use.
package soc
