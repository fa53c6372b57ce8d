// Package dram implements the DDR memory substrate: banked DRAM devices
// with ACT/CAS/PRE timing, a shared per-channel data bus, and a memory
// controller with the split front-end / back-end organization the paper's
// modified gem5 model uses (Section IV, Table III).
//
// The front end holds separate bounded read and write queues; admission is
// credit-based, so when the read queue is full, upstream requests wait in
// the last-level cache — exactly the condition under which the paper shows
// target-only regulation breaks down (Section II-C). The back end
// schedules ready banks onto the data bus. Scheduling policy is pluggable:
// the baseline is first-ready FCFS (FR-FCFS), and the PABST priority
// arbiter supplies virtual deadlines picked earliest-deadline-first.
//
// Main entry points: NewController builds one channel's controller;
// Controller.Tick advances it; TryReserveRead/ArriveRead (and their write
// twins) implement the credit-based admission protocol. NextEventAt is
// the next cycle the controller could issue — the latest of the first
// unfrozen cycle, the pipeline window and the earliest readyAt among the
// banks holding work in the current read/write mode — and FastForward
// replays everything a tick before it does (the saturation integral,
// pending cycles, the mode register), so the event kernel
// sleeps a loaded channel between issue slots, not only an idle one;
// Tick is FastForward over its cycle plus at most one issue. The
// saturation monitor feeding the SAT wire samples
// Controller.EpochSaturated.
//
// The indexed scheduler (sched.go) replaced full-queue scans; the scan
// code survives only under `go test`, as the differential oracle in
// reference_test.go. The per-cycle read pick walks the set bits of an
// occupied-bank bitmap kept beside the index, in ascending bank order,
// so it touches only banks that hold a read and breaks ties as the scan
// over every bank did; bank timing is one dense readyAt array that the
// pick, StallBank and NextEventAt share (DESIGN.md "Host data
// layout").
package dram
