// Package pabst implements the paper's contribution: the source-side
// bandwidth governor (system monitor, rate generator, and pacer of
// Section III-B) and the target-side machinery (saturation monitor and
// priority arbiter of Section III-C).
//
// One Governor instance sits at each tile's private cache and throttles
// the rate at which L2 misses enter the SoC network. All governors run
// the same distributed algorithm from the same two inputs — the epoch
// heartbeat and the global wired-OR saturation signal — so they produce
// identical multipliers without communicating. One Arbiter instance sits
// in each memory controller and serves queued reads earliest-virtual-
// deadline-first, charging each class one stride of virtual time per
// accepted request.
//
// Main entry points: NewGovernor (NewLaneGovernor for Section III-C1's
// lane per memory controller) with Governor.Epoch and
// Governor.CanIssue/OnIssue on the source side; NewArbiter and its
// ReadSched implementation on the target side; Params collects the
// paper's tuning constants. The degradation machinery
// (stale-SAT watchdog, bounded re-convergence) lives here too and is
// exercised by the fault package's injection plans.
package pabst
