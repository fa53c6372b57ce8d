// Command pabstsweep runs ablation sweeps over the PABST design
// parameters called out in DESIGN.md: epoch length, the rate scale factor
// F, pacer burst credit, arbiter slack, front-end queue depth, page
// policy, and gain inertia.
//
// Each sweep point is an exp.RunSpec — the same serializable unit of
// work the sweep service (cmd/pabstserve) executes — so a point run
// here and the equivalent job submitted over REST produce bit-identical
// machines and results. Every point runs the canonical 7:3
// two-stream-class allocation and reports how well the split converged
// and how much throughput the system sustained; the slack and bankq
// sweeps additionally run the chaser mix, where the arbiter matters
// most.
//
// Usage:
//
//	pabstsweep [-scale quick|full] [-param name] [-parallel n]
//	pabstsweep -policies [-out BENCH_policies.json] [-csv policies.csv]
//	pabstsweep -screen [-out BENCH_screen.json]
//	pabstsweep -twin [-out BENCH_twin.json]
//	pabstsweep -experiment name
//	pabstsweep -list-experiments
//
// Sweep points run concurrently, each on its own isolated system, one
// per core by default: -parallel 0 (the default) = all cores, 1 = one at
// a time, n = at most n. It changes only wall-clock time — every point's
// numbers are bit-identical at any setting. Peak heap is about cores ×
// one machine (≈ 12 MB for the paper's 32 tiles); -parallel 1 bounds it.
//
// -policy src+tgt runs every parameter-sweep point (or -experiment run)
// under that mechanism instead of its default (either half may be empty
// to keep that side; see pabstsim -list-policies for the names and
// DESIGN.md "Selecting a mechanism" for the precedence rule). It does
// not combine with -policies, -screen or -twin, whose grids name the
// pair of every point.
// -policies switches to the cross-policy Pareto comparison instead: each
// registered mechanism pair runs the 7:3 stream mix across the
// utilization axis, and the tool reports each load's Pareto frontier on
// (share fidelity, hi-class p99 latency), optionally serializing the
// points with -out (JSON) and -csv.
//
// -screen runs the same comparison surrogate-first: the analytical twin
// (internal/twin) predicts every grid point, only points near the
// predicted frontier or with low model confidence go to the cycle
// simulator, and every skip is journaled with its justification. -twin
// validates that surrogate against the simulator across the fig1/fig5
// regulation points and the full Pareto grid, writing the per-metric
// divergence and exiting non-zero if it breaches the declared
// tolerances (the BENCH_twin.json gate `make bench-twin` enforces).
//
// -experiment runs any experiment from the unified registry (the same
// seam pabstsim's figures and the sweep service execute through);
// -list-experiments prints the registry.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"pabst/internal/cliflags"
	"pabst/internal/exp"
)

// sweep is one named parameter axis; values feed exp.SetParam through a
// RunSpec, labels render the table rows.
type sweep struct {
	param  string
	labels []string
	values []uint64
	chaser bool // also run the chaser mix (latency-sensitive)
}

func sweeps() []sweep {
	num := func(param string, chaser bool, vals ...uint64) sweep {
		s := sweep{param: param, values: vals, chaser: chaser}
		for _, v := range vals {
			s.labels = append(s.labels, fmt.Sprintf("%d", v))
		}
		return s
	}
	return []sweep{
		num("epoch", false, 500, 1000, 2000, 5000, 10000, 20000),
		num("scalef", false, 16, 64, 256, 1024, 4096),
		num("burst", false, 1, 4, 16, 64),
		num("slack", true, 8, 32, 128, 512, 4096),
		num("queue", false, 8, 16, 32, 64),
		{param: "page", labels: []string{"closed", "open"}, values: []uint64{0, 1}},
		{param: "bankq", chaser: true,
			labels: []string{"pool", "bankq-1", "bankq-2", "bankq-4"},
			values: []uint64{0, 1, 2, 4}},
		num("inertia", false, 0, 1, 3, 6, 10),
	}
}

func main() {
	scaleName := flag.String("scale", "quick", "experiment scale: quick or full")
	param := flag.String("param", "", "sweep only this parameter")
	parallel := flag.Int("parallel", 0, "concurrent sweep points (0 = all cores, 1 = one at a time)")
	common := cliflags.Register(flag.CommandLine)
	policies := flag.Bool("policies", false, "run the cross-policy Pareto comparison instead of parameter sweeps")
	screen := flag.Bool("screen", false, "surrogate-screened Pareto comparison: the analytical twin picks which grid points simulate")
	twin := flag.Bool("twin", false, "validate the analytical twin against the simulator; exit 1 if outside tolerance")
	experiment := flag.String("experiment", "", "run this registered experiment through the unified seam (see -list-experiments)")
	listExperiments := flag.Bool("list-experiments", false, "list the experiment registry and exit")
	outJSON := flag.String("out", "", "write the result JSON (-policies, -screen, -twin) to this `file`")
	outCSV := flag.String("csv", "", "with -policies: write the sweep points as CSV to this `file`")
	flag.Parse()

	if *listExperiments {
		for _, e := range exp.Experiments() {
			fmt.Printf("%-12s %s\n", e.Name(), e.Desc())
		}
		return
	}

	sc, err := exp.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pabstsweep: unknown scale %q\n", *scaleName)
		os.Exit(1)
	}
	if err := common.Apply(&sc); err != nil {
		fmt.Fprintf(os.Stderr, "pabstsweep: %v\n", err)
		os.Exit(1)
	}
	sc.Parallel = *parallel
	if common.Policy != "" && (*policies || *screen || *twin) {
		// Those grids name the pair of every point, and a point's own
		// pair wins over -policy: the flag could only be ignored.
		fmt.Fprintln(os.Stderr, "pabstsweep: -policy does not combine with -policies, -screen or -twin (their grids name every pair they run)")
		os.Exit(2)
	}

	switch {
	case *twin:
		if err := runTwin(sc, *outJSON); err != nil {
			fmt.Fprintf(os.Stderr, "pabstsweep: %v\n", err)
			os.Exit(1)
		}
		return
	case *screen:
		if err := runScreen(sc, *outJSON); err != nil {
			fmt.Fprintf(os.Stderr, "pabstsweep: %v\n", err)
			os.Exit(1)
		}
		return
	case *experiment != "":
		e, err := exp.ExperimentByName(*experiment)
		if err == nil {
			var tbl *exp.Table
			tbl, _, _, err = exp.RunExperimentScale(context.Background(), e, sc, nil)
			if err == nil {
				fmt.Print(tbl.String())
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pabstsweep: %v\n", err)
			os.Exit(1)
		}
		return
	case *policies:
		if err := runPolicies(sc, *outJSON, *outCSV); err != nil {
			fmt.Fprintf(os.Stderr, "pabstsweep: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// Sweep specs resolve their scale name to sc, -policy and -ckpt included.
	ex := exp.Exec{Ckpt: sc.Ckpt, Resume: sc.Resume, Scales: map[string]exp.Scale{sc.Name: sc}}
	for _, s := range sweeps() {
		if *param != "" && s.param != *param {
			continue
		}
		desc, _ := exp.ParamDesc(s.param)
		fmt.Printf("== sweep %s: %s ==\n", s.param, desc)
		fmt.Printf("%-10s %12s %12s %12s", "value", "share-hi", "err-70/30", "total-B/cyc")
		if s.chaser {
			fmt.Printf(" %14s", "chaser-share")
		}
		fmt.Println()
		// Points are independent simulations: measure them on the bounded
		// pool, then print in sweep order.
		type res struct {
			shHi, bpc, chaser float64
		}
		results := make([]res, len(s.values))
		err := exp.ForEach(*parallel, len(s.values), func(i int) error {
			params := map[string]uint64{s.param: s.values[i]}
			spec := exp.RunSpec{Bench: exp.BenchStreams, Scale: sc.Name, Params: params}
			r, err := spec.Run(context.Background(), ex, exp.RunIO{})
			if err != nil {
				return err
			}
			results[i] = res{shHi: r.ShareHi, bpc: r.TotalBPC}
			if s.chaser {
				cspec := exp.RunSpec{Bench: exp.BenchChaser, Scale: sc.Name, Params: params}
				cr, err := cspec.Run(context.Background(), ex, exp.RunIO{})
				if err != nil {
					return err
				}
				results[i].chaser = cr.ShareHi
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pabstsweep: %v\n", err)
			os.Exit(1)
		}
		for i, label := range s.labels {
			r := results[i]
			fmt.Printf("%-10s %12.3f %12.1f%% %12.1f", label, r.shHi, math.Abs(r.shHi-0.7)/0.7*100, r.bpc)
			if s.chaser {
				fmt.Printf(" %14.3f", r.chaser)
			}
			fmt.Println()
		}
		fmt.Println()
	}
}

// runPolicies executes the cross-policy Pareto comparison through the
// registry's "pareto" experiment: every registered mechanism pair
// across the utilization axis, printed as a table and optionally
// serialized to JSON/CSV files.
func runPolicies(sc exp.Scale, outJSON, outCSV string) error {
	e, err := exp.ExperimentByName("pareto")
	if err != nil {
		return err
	}
	table, specs, results, err := exp.RunExperimentScale(context.Background(), e, sc, nil)
	if err != nil {
		return err
	}
	points, err := exp.ParetoFromRuns(specs, results)
	if err != nil {
		return err
	}
	fmt.Print(table.String())

	if outJSON != "" {
		f, err := os.Create(outJSON)
		if err != nil {
			return err
		}
		if err := exp.WritePolicyJSON(f, sc.Name, points); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d points)\n", outJSON, len(points))
	}
	if outCSV != "" {
		f, err := os.Create(outCSV)
		if err != nil {
			return err
		}
		if err := exp.WritePolicyCSV(f, points); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d points)\n", outCSV, len(points))
	}
	return nil
}

// runTwin validates the analytical twin against the cycle simulator and
// gates the divergence: non-nil error (and a non-zero exit) when any
// mean metric error breaches its declared tolerance.
func runTwin(sc exp.Scale, outJSON string) error {
	b, err := exp.RunTwinBench(sc)
	if err != nil {
		return err
	}
	s := b.Summary
	fmt.Printf("twin validation @ %s: %d operating points\n", b.Scale, s.Points)
	fmt.Printf("  share |err|   mean %.4f  max %.4f  (gate: mean <= %.2f)\n",
		s.MeanShareAbsErr, s.MaxShareAbsErr, b.Tolerance.MeanShareAbsErr)
	fmt.Printf("  p99 rel err   mean %.3f   max %.3f   (gate: mean <= %.2f)\n",
		s.MeanP99RelErr, s.MaxP99RelErr, b.Tolerance.MeanP99RelErr)
	fmt.Printf("  util rel err  mean %.3f   max %.3f   (gate: mean <= %.2f)\n",
		s.MeanUtilRelErr, s.MaxUtilRelErr, b.Tolerance.MeanUtilRelErr)
	if outJSON != "" {
		f, err := os.Create(outJSON)
		if err != nil {
			return err
		}
		if err := exp.WriteTwinJSON(f, b); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outJSON)
	}
	if !b.Pass {
		return fmt.Errorf("twin divergence exceeds tolerance")
	}
	fmt.Println("twin within tolerance")
	return nil
}

// runScreen executes the surrogate-screened cross-policy sweep and
// journals every skipped point with the twin's justification.
func runScreen(sc exp.Scale, outJSON string) error {
	rep, table, err := exp.ScreenedPolicyPareto(sc)
	if err != nil {
		return err
	}
	fmt.Printf("surrogate screen @ %s: %d grid points, %d simulated, %d skipped\n",
		rep.Scale, rep.Total, rep.Simulated, rep.Skipped)
	for _, d := range rep.Decisions {
		verdict := "sim "
		if !d.Simulate {
			verdict = "skip"
		}
		fmt.Printf("  %s %-14s load=%-3d conf=%.2f  %s\n", verdict, d.Pair, d.Load, d.Confidence, d.Reason)
	}
	fmt.Print(table.String())
	if outJSON != "" {
		f, err := os.Create(outJSON)
		if err != nil {
			return err
		}
		if err := exp.WriteScreenJSON(f, rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outJSON)
	}
	return nil
}
