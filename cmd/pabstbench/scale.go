package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"pabst"
)

// ScaleRun is one timed (scenario, mesh size, policy, kernel) cell of
// the scaling study.
type ScaleRun struct {
	Scenario string `json:"scenario"`
	Tiles    int    `json:"tiles"`
	// Policy is the source-policy axis ("pabst" on the default rows).
	Policy      string  `json:"policy,omitempty"`
	Kernel      string  `json:"kernel"`
	Cycles      uint64  `json:"cycles"`
	Skipped     uint64  `json:"skipped_cycles,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	NsPerCycle  float64 `json:"ns_per_cycle"`
	// Speedup is the event kernel's wall-clock gain over the cycle
	// kernel in the same cell (1.0 on the cycle rows).
	Speedup float64 `json:"speedup"`
	// Identical reports whether the run's statistics — including the
	// late-wake counter — matched the cell's cycle-kernel baseline
	// byte-for-byte.
	Identical bool `json:"identical"`
	// LateWakes counts wake-contract violations (must stay 0; it rides
	// in the compared fingerprint, so a nonzero value also fails
	// Identical against the trivially-zero cycle baseline).
	LateWakes uint64 `json:"late_wakes"`
	// TileOccupancy is the tile dispatch class's visited fraction of
	// component-cycles under the event kernel (the cycle kernel's is
	// 1.0 by construction; 0 when not applicable).
	TileOccupancy float64 `json:"tile_occupancy,omitempty"`
}

// ScaleReport is the BENCH_scale.json document: the event-kernel
// scaling study — cycle vs event over idle-heavy mesh sizes, over the
// source-policy zoo, and on an MSHR-saturated strict-model mesh where
// wake-on-completion is the only thing letting blocked cores sleep.
type ScaleReport struct {
	Host struct {
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		NumCPU     int    `json:"num_cpu"`
		GoMaxProcs int    `json:"gomaxprocs"`
	} `json:"host"`
	Cycles uint64     `json:"cycles"`
	Quick  bool       `json:"quick,omitempty"`
	Runs   []ScaleRun `json:"runs"`
	// Speedup1024 is the event-over-cycle gain at the 1024-tile mesh
	// (the headline scaling number; full suite only), Regression64 the
	// event kernel's slowdown at the paper-scale 64-tile mesh (gate:
	// <= 1.10 in every mode).
	Speedup1024  float64 `json:"speedup_1024,omitempty"`
	Regression64 float64 `json:"regression_64"`
	// SpeedupMSHR256 is the event-over-cycle gain on the MSHR-saturated
	// strict-model mesh (gate: >= 1.5 in the full suite) and
	// PolicyBest/PolicyBestSpeedup the strongest non-PABST policy cell
	// (gate: >= 5x in the full suite).
	SpeedupMSHR256    float64 `json:"speedup_mshr_256,omitempty"`
	PolicyBest        string  `json:"policy_best,omitempty"`
	PolicyBestSpeedup float64 `json:"policy_best_speedup,omitempty"`
}

// scaleMesh builds the idle-heavy big-mesh scenario: every tile runs
// short clustered bursts separated by long idle gaps (the workload
// shape the event kernel exists for), under hierarchical SAT gossip.
// Gaps are staggered per tile so bursts desynchronize — aggregate
// demand stays far below the memory system's capacity, but at 1024
// tiles some tile is almost always active, so the machine as a whole is
// never idle and only per-component skipping helps. policy selects the source half by
// registry name ("" keeps the PABST governor).
func scaleMesh(cols, rows int, kernel, policy string) (*pabst.System, []pabst.ClassID) {
	cfg := pabst.MeshScaledConfig(cols, rows)
	cfg.PABST.EpochCycles = 10_000
	cfg.BWWindow = 10_000
	b := pabst.NewBuilder(cfg, pabst.ModePABST,
		pabst.WithKernel(kernel), pabst.WithPolicy(policy, ""))
	c := b.AddClass("bursty", 1, cfg.L3Ways)
	for i := 0; i < cfg.NumTiles(); i++ {
		gap := 15_000 + (i*977)%10_000
		b.Attach(i, c, pabst.BurstyTraffic("b", pabst.TileRegion(i), 16, gap, uint64(i)+1))
	}
	sys, err := b.Build()
	check(err)
	return sys, []pabst.ClassID{c}
}

// scaleMSHRMesh builds the MSHR-saturation scenario under the strict
// blocking model: every tile chases twice as many independent pointer
// chains as it has MSHR entries, so every core spends most cycles
// head-of-line blocked on a full miss table. The cycle kernel (and the
// previous event kernel, which returned "due now" for a blocked tile)
// polls every tile every cycle here; wake-on-completion lets the event
// kernel sleep each blocked tile until the response that frees an
// entry arrives.
func scaleMSHRMesh(cols, rows int, kernel string) (*pabst.System, []pabst.ClassID) {
	cfg := pabst.MeshScaledConfig(cols, rows)
	cfg.PABST.EpochCycles = 10_000
	cfg.BWWindow = 10_000
	cfg.StrictMSHRs = true
	b := pabst.NewBuilder(cfg, pabst.ModePABST, pabst.WithKernel(kernel))
	c := b.AddClass("chaser", 1, cfg.L3Ways)
	for i := 0; i < cfg.NumTiles(); i++ {
		b.Attach(i, c, pabst.Chaser("ch", pabst.TileRegion(i), 2*cfg.MaxMSHRs, uint64(i)+1))
	}
	sys, err := b.Build()
	check(err)
	return sys, []pabst.ClassID{c}
}

// scaleFingerprint extends the common statistics fingerprint with the
// late-wake counter: the cycle baseline's is trivially zero, so kernel
// identity forces every event run's to zero as well.
func scaleFingerprint(sys *pabst.System, classes []pabst.ClassID) (string, uint64, float64) {
	snap := sys.Snapshot()
	fp := fmt.Sprintf("%s lateWakes=%d", fingerprint(sys, classes), snap.LateWakes)
	occ := 0.0
	for _, ec := range snap.EventClasses {
		if ec.Class == "tile" && ec.Registered > 0 && snap.Cycle > 0 {
			occ = float64(ec.Visited) / (float64(snap.Cycle) * float64(ec.Registered))
		}
	}
	return fp, snap.LateWakes, occ
}

// timePair runs one scenario cell under both kernels and appends the
// two timed rows, returning the event kernel's speedup.
func (rep *ScaleReport) timePair(scenario, policy string, tiles int, cycles uint64,
	build func(kernel string) (*pabst.System, []pabst.ClassID)) float64 {
	var baseFP string
	var baseWall float64
	var evSpeedup float64
	for _, kernel := range []string{"cycle", "event"} {
		sys, classes := build(kernel)
		// Collect the previous cell's (possibly mesh-sized) heap before
		// timing, so one cell's garbage never bills the next.
		runtime.GC()
		start := time.Now()
		sys.Run(cycles)
		wall := time.Since(start).Seconds()
		fp, lateWakes, occ := scaleFingerprint(sys, classes)
		skipped := sys.SkippedCycles()
		sys.Close()
		if kernel == "cycle" {
			baseFP, baseWall = fp, wall
			occ = 0
		}
		rep.Runs = append(rep.Runs, ScaleRun{
			Scenario:      scenario,
			Tiles:         tiles,
			Policy:        policy,
			Kernel:        kernel,
			Cycles:        cycles,
			Skipped:       skipped,
			WallSeconds:   wall,
			NsPerCycle:    wall * 1e9 / float64(cycles),
			Speedup:       baseWall / wall,
			Identical:     fp == baseFP,
			LateWakes:     lateWakes,
			TileOccupancy: occ,
		})
		if kernel == "event" {
			evSpeedup = baseWall / wall
		}
	}
	return evSpeedup
}

// scaleSuite times cycle vs event dispatch across three axes — mesh
// size on the bursty scenario, source policy at a fixed mesh, and the
// MSHR-saturated strict-model mesh — verifies the kernels stay
// bit-identical (late wakes included) in every cell, and gates on the
// 64-tile no-regression bound plus, in the full suite, the
// MSHR-saturation and policy-axis speedup floors. quick restricts
// every scenario to the 64-tile mesh for use inside `make check`; the
// full sweep (256- and 1024-tile meshes and the stronger gates) runs
// from `make robust`.
func scaleSuite(cycles uint64, gate, quick bool, out string) {
	var rep ScaleReport
	rep.Host.GOOS = runtime.GOOS
	rep.Host.GOARCH = runtime.GOARCH
	rep.Host.NumCPU = runtime.NumCPU()
	rep.Host.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.Cycles = cycles
	rep.Quick = quick

	sizes := []struct{ cols, rows int }{{8, 8}, {16, 16}, {32, 32}}
	policyMesh := struct{ cols, rows int }{16, 16}
	mshrMesh := struct{ cols, rows int }{16, 16}
	if quick {
		sizes = sizes[:1]
		policyMesh = sizes[0]
		mshrMesh = sizes[0]
	}

	for _, sz := range sizes {
		sz := sz
		tiles := sz.cols * sz.rows
		speedup := rep.timePair("bursty", "pabst", tiles, cycles, func(kernel string) (*pabst.System, []pabst.ClassID) {
			return scaleMesh(sz.cols, sz.rows, kernel, "")
		})
		switch tiles {
		case 1024:
			rep.Speedup1024 = speedup
		case 64:
			rep.Regression64 = 1 / speedup
		}
	}

	// The policy axis: the same bursty mesh under each non-PABST source
	// policy, pinning that the issue-schedule seam keeps every policy's
	// tiles asleep through their idle gaps.
	for _, policy := range []string{"static", "bankreg", "lmsar"} {
		policy := policy
		speedup := rep.timePair("policy", policy, policyMesh.cols*policyMesh.rows, cycles,
			func(kernel string) (*pabst.System, []pabst.ClassID) {
				return scaleMesh(policyMesh.cols, policyMesh.rows, kernel, policy)
			})
		if speedup > rep.PolicyBestSpeedup {
			rep.PolicyBest, rep.PolicyBestSpeedup = policy, speedup
		}
	}

	rep.SpeedupMSHR256 = rep.timePair("mshr", "pabst", mshrMesh.cols*mshrMesh.rows, cycles,
		func(kernel string) (*pabst.System, []pabst.ClassID) {
			return scaleMSHRMesh(mshrMesh.cols, mshrMesh.rows, kernel)
		})

	b, err := json.MarshalIndent(&rep, "", "  ")
	check(err)
	check(os.WriteFile(out, append(b, '\n'), 0o644))
	fmt.Printf("wrote %s\n", out)
	for _, r := range rep.Runs {
		same := "identical"
		if !r.Identical {
			same = "OUTPUT DIVERGED"
		}
		fmt.Printf("%-7s tiles=%-5d %-8s %-6s %9.1f ns/cyc  %6.2fx  %s\n",
			r.Scenario, r.Tiles, r.Policy, r.Kernel, r.NsPerCycle, r.Speedup, same)
	}
	fmt.Printf("event kernel: %.2fx regression at 64 tiles, %.1fx on MSHR saturation, best policy %s at %.1fx\n",
		rep.Regression64, rep.SpeedupMSHR256, rep.PolicyBest, rep.PolicyBestSpeedup)
	if rep.Speedup1024 > 0 {
		fmt.Printf("event kernel: %.1fx at 1024 tiles\n", rep.Speedup1024)
	}

	if gate {
		for _, r := range rep.Runs {
			if !r.Identical {
				check(fmt.Errorf("scale suite: scenario=%s tiles=%d policy=%s kernel=%s diverged from the cycle baseline",
					r.Scenario, r.Tiles, r.Policy, r.Kernel))
			}
			if r.LateWakes != 0 {
				check(fmt.Errorf("scale suite: scenario=%s tiles=%d policy=%s kernel=%s recorded %d late wakes",
					r.Scenario, r.Tiles, r.Policy, r.Kernel, r.LateWakes))
			}
		}
		// No-regression bound at the paper-scale mesh: the event kernel
		// may not cost more than 10% over cycle dispatch at 64 tiles.
		if rep.Regression64 > 1.10 {
			check(fmt.Errorf("scale suite: event kernel regressed %.2fx at 64 tiles (gate 1.10x)", rep.Regression64))
		}
		if !quick {
			// Full-suite speedup floors: MSHR-blocked sleep must win on
			// the saturated 256-tile mesh, and at least one non-PABST
			// policy must reach 5x through its issue schedule.
			if rep.SpeedupMSHR256 < 1.5 {
				check(fmt.Errorf("scale suite: MSHR-saturation speedup %.2fx below the 1.5x gate", rep.SpeedupMSHR256))
			}
			if rep.PolicyBestSpeedup < 5 {
				check(fmt.Errorf("scale suite: best policy-axis speedup %.2fx (%s) below the 5x gate",
					rep.PolicyBestSpeedup, rep.PolicyBest))
			}
		}
	}
}
