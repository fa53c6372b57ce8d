// Package exp reproduces every table and figure of the paper's evaluation
// (Section IV). Each experiment builds its workload mix through the public
// pabst API, runs warmup + measurement windows, and returns the rows or
// series the paper reports. The cmd/pabstsim CLI and the repository's
// bench harness are thin wrappers over this package.
//
// Main entry points: the Fig1..Fig11 and Faults functions, one per
// reproduced result, all parameterized by a Scale (Quick/Paper presets).
// Scale also carries Parallel, which bounds the sweep-level worker pool
// used through ForEach, and Kernel, the hook that runs an experiment on
// the cycle-stepped reference loop. Both change wall-clock time only:
// every experiment's output is byte-identical at any setting, which
// TestSweepParallelismIsInvisible and TestDeterminismMatrix assert.
package exp
