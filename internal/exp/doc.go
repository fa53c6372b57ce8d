// Package exp reproduces every table and figure of the paper's evaluation
// (Section IV). Each experiment builds its workload mix through the public
// pabst API, runs warmup + measurement windows, and returns the rows or
// series the paper reports. The cmd/pabstsim CLI and the repository
// benchmark (bench/) are thin callers of this package.
//
// One entry point runs a grid: an Experiment from the registry
// (ExperimentByName, or a New*Experiment constructor for a custom
// workload list or fault plan) names its RunSpecs and reduces their
// results to a Table, and RunExperimentScale executes
// it — grouping specs by fingerprint, running each group once, reducing.
// A RunCache in Exec.Results lets RunSpec.Run answer a fingerprint that
// already completed into it instead of simulating it again; the figure
// set and the sweep service share that one mechanism.
// The trajectory experiments that need per-epoch series the seam does
// not carry (Fig5Series, Fig6, Fig8, Fig9) are plain functions. All are
// parameterized by a Scale (Quick/Full presets), which also carries
// Parallel, bounding how many of an experiment's independent
// simulations run at once, and Kernel, the hook that runs an
// experiment on the cycle-stepped reference loop. Both change wall-clock
// time only: every experiment's output is byte-identical at any setting,
// which TestSweepParallelismIsInvisible and TestDeterminismMatrix assert.
//
// Run-level parallelism has one rule, stated in ForEach and inherited by
// everything that takes a parallel count (Scale.Parallel, RunExperimentScale,
// the commands' -parallel flag): 0 = every core
// (runtime.GOMAXPROCS), 1 = one at a time on the caller's goroutine,
// n = at most n. The zero value is therefore the fast one. Peak heap is
// about that many machines (≈ 12 MB each for the paper's 32 tiles,
// ≈ 90 MB for a 256-tile mesh); Parallel 1 is the way to bound it.
// RunExperimentScale simulates each distinct spec fingerprint once, so the
// number of simulations never depends on how the pool schedules.
package exp
