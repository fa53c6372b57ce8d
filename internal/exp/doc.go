// Package exp reproduces every table and figure of the paper's evaluation
// (Section IV). Each experiment builds its workload mix through the public
// pabst API, runs warmup + measurement windows, and returns the rows or
// series the paper reports. The cmd/pabstsim CLI and the repository's
// bench harness are thin wrappers over this package.
//
// Main entry points: the Fig1..Fig11 and Faults functions, one per
// reproduced result, all parameterized by a Scale (Quick/Paper presets).
// Scale also carries Parallel, which bounds how many of an experiment's
// independent simulations run at once, and Kernel, the hook that runs an
// experiment on the cycle-stepped reference loop. Both change wall-clock
// time only: every experiment's output is byte-identical at any setting,
// which TestSweepParallelismIsInvisible and TestDeterminismMatrix assert.
//
// Run-level parallelism has one rule, stated in ForEach and inherited by
// everything that takes a parallel count (Scale.Parallel, RunExperiment,
// ForEachWarm, the commands' -parallel flag): 0 = every core
// (runtime.GOMAXPROCS), 1 = one at a time on the caller's goroutine,
// n = at most n. The zero value is therefore the fast one. Peak heap is
// about that many machines (≈ 12 MB each for the paper's 32 tiles,
// ≈ 90 MB for a 256-tile mesh); Parallel 1 is the way to bound it.
// RunExperiment simulates each distinct spec fingerprint once, so the
// number of simulations never depends on how the pool schedules.
package exp
