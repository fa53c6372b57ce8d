// Package obs is the deterministic observability layer: epoch-scoped
// trace events, pluggable sinks, a metric registry, and convergence
// analyzers for the PABST feedback loop.
//
// The design contract has three clauses:
//
//   - Deterministic: every event is emitted from the epoch hook, which
//     runs before the cycle's components once every one of them has
//     been caught up, in a fixed order (epoch summary, governors in
//     tile order, arbiters and DRAM controllers in channel order,
//     faults last). Trace bytes are therefore identical on the event
//     kernel and the reference loop.
//
//   - Zero overhead when disabled: a nil *Observer is a valid observer;
//     every probe is a single pointer check and no event is built. The
//     simulator's tick hot path carries no observability code at all —
//     probes fire only at epoch boundaries.
//
//   - Observation never perturbs: sinks see copies of simulator state
//     (counter deltas, sampled regulator registers); nothing an observer
//     or sink does can change a simulated outcome.
//
// Sinks render events as JSONL or CSV streams. The Registry complements
// the event stream with named gauge samplers over live counters,
// rendered as Prometheus-style text for pull-style scraping of a
// running system.
package obs
