// Package sim provides the deterministic simulation kernel used by every
// structural model in the repository.
//
// The kernel advances a single global clock. Each component registers
// as a Sleeper under a dispatch class (SetEventMode, RegisterEvent;
// events.go) and reports the next cycle at which it has work
// (NextEventAt); a cycle visits only the components that are due, in
// canonical class-then-registration order, and the clock jumps over
// cycles in which nothing is due. A skipped component is caught up with
// FastForward (saturation integrals, cycle counts) just before it next
// runs.
// The contract that makes skipping invisible: if NextEventAt(from)
// returns t > from, then ticking the component at every cycle in
// [from, t) must be a pure no-op. Periodic hooks (the PABST epoch
// heartbeat, statistics sampling) fire at cycle boundaries before that
// cycle's components and act as barriers: every component is caught up
// before a hook reads it.
//
// Kernel.Reference switches skipping off: hooks, then every registered
// component in the same class-then-registration order through the same
// dispatcher, then the next cycle, with no NextEventAt, no FastForward
// and no wakes. It is the oracle the differential tests hold the default
// mode bit-identical to.
//
// Main entry points: Kernel with SetEventMode/RegisterEvent/Wake/
// DirtyEvent/Every/Run; Sleeper; the allocation-free containers Ring,
// DelayQueue and U64Map; and RNG, the splittable deterministic random streams that
// keep seeded behavior independent of execution order. See DESIGN.md,
// "Event-driven kernel".
package sim
