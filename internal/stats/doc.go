// Package stats provides the measurement machinery shared by the
// experiments: HDR-style latency histograms, windowed bandwidth time
// series, and monotonic counters.
//
// Concurrency contract: every type here is single-writer and unlocked.
// A Hist or Series belongs to exactly one running simulation; concurrent
// sweeps (exp.ForEach) give each simulation private instances and Merge
// or read them only after the worker pool has joined, so the WaitGroup
// provides the happens-before edge. Violations are caught by the race
// detector (`make robust`).
//
// Main entry points: Hist with Add/Merge/Percentile; NewSeries with
// Observe and the share/bandwidth accessors; NewCounters.
package stats
