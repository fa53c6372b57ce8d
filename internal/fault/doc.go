// Package fault is the deterministic fault-injection subsystem: it
// perturbs the three distributed channels the PABST feedback loop relies
// on — the epoch/SAT broadcast (Section III-C), the DRAM controllers, and
// the NoC — under a composable, seeded Plan, so the degradation machinery
// (stale-signal watchdogs, bounded re-convergence) can be exercised
// reproducibly.
//
// The paper assumes every governor receives the identical wired-OR SAT
// signal on the identical heartbeat; this package exists to break that
// assumption on purpose. All randomness flows from sim.RNG streams seeded
// by the experiment seed, so a faulted run is exactly as reproducible as
// a clean one. A nil or zero Plan injects nothing and costs nothing; an
// active one is also what arms the governors' degradation machinery
// (internal/soc). The NoC half applies on the latency-only mesh only:
// config.System.Validate refuses it together with the modeled NoC.
//
// Main entry points: Preset names a Plan (a plan is never read from a
// file; a custom one is a Plan value in config.System.Faults);
// NewInjector binds it to seeded RNG streams; the soc layer consults the
// injector at each hook point. NoC draws come from one stream per tile
// and per memory controller, so a faulted run is bit-identical on the
// event kernel and the reference loop.
package fault
