// Command pabstsweep runs ablation sweeps over the PABST design
// parameters called out in DESIGN.md: epoch length, the rate scale factor
// F, pacer burst credit, arbiter slack, front-end queue depth, page
// policy, and gain inertia.
//
// Each axis is an experiment (exp.ParamSweeps) run through the same seam
// as pabstsim's figures, and each point an exp.RunSpec — the same
// serializable unit of work the sweep service (cmd/pabstserve) executes
// — so a point run here and the equivalent job submitted over REST
// produce bit-identical machines and results. Every point runs the
// canonical 7:3 two-stream-class allocation and reports how well the
// split converged and how much throughput the system sustained; the
// slack sweep additionally runs the chaser mix, where the arbiter
// matters most.
//
// Usage:
//
//	pabstsweep [-scale quick|full] [-param name] [-parallel n]
//	           [-policy src+tgt] [-ckpt dir] [-resume]
//
// Sweep points run concurrently, each on its own isolated system, one
// per core by default: -parallel 0 (the default) = all cores, 1 = one at
// a time, n = at most n. It changes only wall-clock time — every point's
// numbers are bit-identical at any setting. Peak heap is about cores ×
// one machine (≈ 12 MB for the paper's 32 tiles); -parallel 1 bounds it.
//
// -policy src+tgt runs every point under that mechanism instead of full
// PABST (either half may be empty to keep that side; see pabstsim
// -list-policies for the names and DESIGN.md "Selecting a mechanism"
// for the precedence rule). The cross-policy comparison, and every other
// registered experiment, is pabstsim's: `pabstsim pareto`.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"pabst/internal/cliflags"
	"pabst/internal/exp"
)

func main() {
	scaleName := flag.String("scale", "quick", "experiment scale: quick or full")
	param := flag.String("param", "", "sweep only this parameter")
	parallel := flag.Int("parallel", 0, "concurrent sweep points (0 = all cores, 1 = one at a time)")
	common := cliflags.Register(flag.CommandLine)
	flag.Parse()

	sc, err := exp.ScaleByName(*scaleName)
	check(err)
	check(common.Apply(&sc))
	sc.Parallel = *parallel

	ran := false
	var axes []string
	for _, e := range exp.ParamSweeps() {
		axes = append(axes, e.Name())
		if *param != "" && e.Name() != *param {
			continue
		}
		ran = true
		tbl, _, _, err := exp.RunExperimentScale(context.Background(), e, sc, nil)
		check(err)
		fmt.Print(tbl.String())
		fmt.Println()
	}
	if !ran {
		check(fmt.Errorf("no sweep axis %q (have %v)", *param, axes))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "pabstsweep: %v\n", err)
		os.Exit(1)
	}
}
