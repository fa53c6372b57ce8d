// Package workload provides the synthetic program-behavior generators
// standing in for the paper's workloads (Section IV, Table IV): the
// stream and chaser microbenchmarks, the periodic and L3-resident
// streamers, proxies for the eight memory-intensive SPEC CPU 2006
// applications, and a memcached-like transaction service.
//
// A generator emits an unbounded sequence of memory ops; the cpu.Core
// enforces their dependencies and structural limits. Each generator is
// deterministic given its seed and parameters, and each op carries the
// instruction count it represents so cores can report IPC.
//
// Main entry points: the Generator interface and its constructors —
// NewStream, NewChaser, NewBursty (whose idle gaps are what the event
// kernel skips), NewPeriodicStream, NewFilteredStream,
// NewMemcached — plus Region for carving the physical address space.
package workload
