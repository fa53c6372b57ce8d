// Package sim provides the deterministic simulation kernel used by every
// structural model in the repository.
//
// The kernel advances a single global clock. In its production mode
// (SetEventMode, events.go) each component registers as a Sleeper under
// a dispatch class and reports the next cycle at which it has work
// (NextEventAt); a cycle visits only the components that are due, in
// canonical class-then-registration order, and the clock jumps over
// cycles in which nothing is due. A skipped component is caught up with
// FastForward (refresh counters, cycle counts) just before it next runs.
// The contract that makes skipping invisible: if NextEventAt(from)
// returns t > from, then ticking the component at every cycle in
// [from, t) must be a pure no-op. Periodic hooks (the PABST epoch
// heartbeat, statistics sampling) fire at cycle boundaries before that
// cycle's components and act as barriers: every component is caught up
// before a hook reads it.
//
// Without SetEventMode the kernel is the reference loop — hooks, then
// every registered Ticker in registration order, then the next cycle —
// which the differential tests hold the event mode bit-identical to.
//
// Main entry points: Kernel with SetEventMode/RegisterEvent/Wake/
// DirtyEvent/Every/Run (and Register for the reference loop); Ticker,
// TickFunc, and Sleeper; the allocation-free containers Ring, DelayQueue
// and U64Map; and RNG, the splittable deterministic random streams that
// keep seeded behavior independent of execution order. See DESIGN.md,
// "Event-driven kernel".
package sim
