package exp

import (
	"context"
	"math"
	"strings"
	"testing"

	"pabst"
)

// The experiment tests assert the paper's qualitative shapes at the
// quick scale: who wins, in which direction, and by roughly what factor.
// Absolute magnitudes live in EXPERIMENTS.md.

// claimCache is shared by every claim test that runs a registry
// experiment at Quick(): fig1's grid is a subset of fig7's, fig12's is
// fig10's, so each distinct machine simulates once per test process.
// Tests that compare two real runs (determinism, parallelism) pass nil.
var claimCache = NewRunCache()

// runQuick runs an experiment at Quick() against claimCache.
func runQuick(t *testing.T, e Experiment) (*Table, []RunSpec, []RunResult) {
	t.Helper()
	tbl, specs, results, err := RunExperimentScale(context.Background(), e, Quick(), claimCache)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, specs, results
}

// registered resolves a registry experiment or fails the test.
func registered(t *testing.T, name string) Experiment {
	t.Helper()
	e, err := ExperimentByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// cell reads one table value by row label and column.
func cell(t *testing.T, tbl *Table, label, col string) float64 {
	t.Helper()
	for _, r := range tbl.Rows {
		if r.Label == label {
			v, ok := r.Values[col]
			if !ok {
				t.Fatalf("%s: row %q has no column %q", tbl.Title, label, col)
			}
			return v
		}
	}
	t.Fatalf("%s: no row %q", tbl.Title, label)
	return 0
}

func TestFig1Shapes(t *testing.T) {
	tbl, _, _ := runQuick(t, registered(t, "fig1"))
	// (a) Source regulation handles the stream flood well.
	if e := cell(t, tbl, "stream+stream / source-only", "err-%"); e > 15 {
		t.Fatalf("stream/source error %.1f%%, want small", e)
	}
	// (b) Target-only fails under the flood.
	if e := cell(t, tbl, "stream+stream / target-only", "err-%"); e < 30 {
		t.Fatalf("stream/target error %.1f%%, want large", e)
	}
	// (c) The paper's source-only shortfall on the chaser is not
	// reproduced: with 8 chains per CPU the chaser can use its whole 75 %,
	// and the governor gives it that (at the paper's 4 chains it falls
	// to ~0.53; EXPERIMENTS.md, Figure 1).
	if hi := cell(t, tbl, "chaser+stream / source-only", "share-hi"); math.Abs(hi-0.75) > 0.05 {
		t.Fatalf("chaser/source share %.2f, want its 0.75 entitlement", hi)
	}
	// (d) Target-only lifts the latency-sensitive chaser toward its
	// entitlement: its few reads get through the front door's round-robin
	// to the arbiter, which serves them first (the paper's (d)).
	if hi := cell(t, tbl, "chaser+stream / target-only", "share-hi"); hi < 0.35 {
		t.Fatalf("chaser/target share %.2f, want the arbiter to lift it to at least 0.35", hi)
	}
}

func TestFig7PABSTTracksBest(t *testing.T) {
	tbl, specs, _ := runQuick(t, registered(t, "fig7"))
	best := map[string]float64{} // bench -> best single-sided error
	pabstErr := map[string]float64{}
	for i, rs := range specs {
		e := tbl.Rows[i].Values["err-%"]
		if rs.Mode == "pabst" {
			pabstErr[rs.Bench] = e
			continue
		}
		if cur, ok := best[rs.Bench]; !ok || e < cur {
			best[rs.Bench] = e
		}
	}
	if len(pabstErr) != 2 {
		t.Fatalf("fig7 has PABST rows for %d mixes, want 2", len(pabstErr))
	}
	for mix, pe := range pabstErr {
		// PABST must track (or beat) the better single-sided regulator,
		// within a modest tolerance.
		if pe > best[mix]+12 {
			t.Fatalf("%v: PABST error %.1f%% much worse than best single regulator %.1f%%", mix, pe, best[mix])
		}
	}
}

func TestFig5ProportionalAllocation(t *testing.T) {
	r, err := Fig5Series(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.SteadyShares[0]-0.7) > 0.05 || math.Abs(r.SteadyShares[1]-0.3) > 0.05 {
		t.Fatalf("steady shares %.2f/%.2f, want 0.70/0.30", r.SteadyShares[0], r.SteadyShares[1])
	}
	if r.ConvergedAt == 0 {
		t.Fatal("allocation never converged")
	}
	// "quickly find the target rates": within a third of the warmup.
	if r.ConvergedAt > Quick().Warmup/3 {
		t.Fatalf("converged only at cycle %d", r.ConvergedAt)
	}
}

func TestFig6WorkConservation(t *testing.T) {
	r, err := Fig6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.IdleWindows == 0 || r.ActiveWindows == 0 {
		t.Fatalf("phase classification found %d idle / %d active windows", r.IdleWindows, r.ActiveWindows)
	}
	// While the periodic class streams, the constant class sits near its
	// 30% share.
	if math.Abs(r.ConstShareActive-0.30) > 0.08 {
		t.Fatalf("constant share while active = %.2f, want ~0.30", r.ConstShareActive)
	}
	// While the periodic class is cache-resident, the constant class
	// soaks up most of the machine.
	if r.ConstBpcIdle < 0.70*r.PeakBpc {
		t.Fatalf("constant B/cyc while idle = %.1f of %.1f peak: not work conserving", r.ConstBpcIdle, r.PeakBpc)
	}
}

func TestFig8ExcessDistribution(t *testing.T) {
	r, err := Fig8(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// The idle 25% must be redistributed ~2:1.
	if math.Abs(r.ShareHi-r.ExpectedHi) > 0.06 || math.Abs(r.ShareLo-r.ExpectedLo) > 0.06 {
		t.Fatalf("excess split %.2f/%.2f, want ~%.2f/%.2f", r.ShareHi, r.ShareLo, r.ExpectedHi, r.ExpectedLo)
	}
	// And the L3-resident class stops touching DRAM.
	if r.ShareL3 > 0.05 {
		t.Fatalf("L3-resident class still takes %.2f of DRAM traffic", r.ShareL3)
	}
}

func TestFig9MemcachedIsolation(t *testing.T) {
	r, err := Fig9(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.Isolated.Transactions == 0 || r.Colocated.Transactions == 0 || r.PABST.Transactions == 0 {
		t.Fatalf("missing transactions: %+v", r)
	}
	// Co-location without QoS must hurt badly...
	if r.Colocated.Mean < 3*r.Isolated.Mean {
		t.Fatalf("colocated mean %.0f vs isolated %.0f: aggressor too gentle", r.Colocated.Mean, r.Isolated.Mean)
	}
	// ...and PABST must recover most of that degradation on the mean
	// (0.77 at quick scale) and a good part of it on the tail (0.39).
	recovered := func(iso, colo, pabst float64) float64 { return (colo - pabst) / (colo - iso) }
	if f := recovered(r.Isolated.Mean, r.Colocated.Mean, r.PABST.Mean); f < 0.6 {
		t.Fatalf("PABST mean %.0f between isolated %.0f and colocated %.0f recovers %.2f of the degradation, want at least 0.6",
			r.PABST.Mean, r.Isolated.Mean, r.Colocated.Mean, f)
	}
	if f := recovered(float64(r.Isolated.P99), float64(r.Colocated.P99), float64(r.PABST.P99)); f < 0.25 {
		t.Fatalf("PABST p99 %d between isolated %d and colocated %d recovers %.2f of the degradation, want at least 0.25",
			r.PABST.P99, r.Isolated.P99, r.Colocated.P99, f)
	}
}

func TestFig10IsolationShapes(t *testing.T) {
	// A bandwidth-limited and a latency-limited workload suffice to pin
	// the shape; the full grid runs in the CLI and the benchmark.
	workloads := []string{"libquantum", "sphinx3"}
	tbl, _, _ := runQuick(t, NewIsolationExperiment("fig10", "", workloads, false))
	for _, w := range workloads {
		none := cell(t, tbl, w, "none")
		pb := cell(t, tbl, w, "pabst")
		src := cell(t, tbl, w, "source-only")
		tgt := cell(t, tbl, w, "target-only")
		if none < 1.5 {
			t.Fatalf("%s: baseline slowdown %.2f, aggressor too weak", w, none)
		}
		if pb > 1.35 {
			t.Fatalf("%s: PABST slowdown %.2f, want near 1.2", w, pb)
		}
		if pb > none || src > none || tgt > none {
			t.Fatalf("%s: some regulator made things worse (none=%.2f src=%.2f tgt=%.2f pabst=%.2f)",
				w, none, src, tgt, pb)
		}
		// PABST at least ties the single-sided regulators (small noise
		// tolerance).
		if pb > src+0.08 || pb > tgt+0.08 {
			t.Fatalf("%s: PABST %.2f worse than a single-sided regulator (src=%.2f tgt=%.2f)", w, pb, src, tgt)
		}
	}
}

func TestFig12EfficiencyShapes(t *testing.T) {
	tbl, _, _ := runQuick(t, NewIsolationExperiment("fig12", "", []string{"libquantum"}, true))
	none := cell(t, tbl, "libquantum", "none")
	pb := cell(t, tbl, "libquantum", "pabst")
	if none < 0.9 {
		t.Fatalf("baseline efficiency %.2f, should be high with a streaming aggressor", none)
	}
	if pb >= none {
		t.Fatalf("QoS did not cost any efficiency (none=%.2f pabst=%.2f)", none, pb)
	}
	if pb < 0.6 {
		t.Fatalf("PABST efficiency %.2f collapsed", pb)
	}
}

func TestFig11WorkConservingFairness(t *testing.T) {
	workloads := []string{"sphinx3", "omnetpp"}
	tbl, _, _ := runQuick(t, NewFig11Experiment(workloads))
	for _, w := range workloads {
		// Latency-limited workloads gain the most from consolidation on
		// full-speed DRAM vs the quarter-frequency static machine.
		if imp := cell(t, tbl, w, "improve-%"); imp < 10 {
			t.Fatalf("%s: improvement %.1f%%, want the work-conserving win", w, imp)
		}
	}
}

// TestParetoFrontierIsPABST pins EXPERIMENTS.md "Cross-policy Pareto
// sweep": on (share error, hi-class p99) the full feedback pair is on
// the frontier at every load and no related-work pair ever is. The
// table is the experiment's whole output (`pabstsim -json pareto`), so
// it must also carry every column a reader of that claim needs.
func TestParetoFrontierIsPABST(t *testing.T) {
	if testing.Short() {
		t.Skip("12 simulations")
	}
	// The frontier is a claim about converged mechanisms. Four tiles per
	// class take longer than Quick()'s 100k-cycle warmup to settle: there
	// pabst+pabst sits at 2.7 % error and none+dpq at 1.8 %; after 300k
	// cycles PABST is at 0.6 % and dpq at 6 %, as at full scale.
	sc := Quick()
	sc.Warmup = 300_000
	tbl, specs, _, err := RunExperimentScale(context.Background(), registered(t, "pareto"), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(specs) || len(specs) != len(ParetoPairs())*len(ParetoLoads()) {
		t.Fatalf("%d rows for %d specs, want one per (pair, load)", len(tbl.Rows), len(specs))
	}
	doc, err := tbl.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"load", "share-hi", "err-%", "p99-hi", "bus-util", "frontier"} {
		if !strings.Contains(string(doc), `"`+col+`"`) {
			t.Errorf("pareto -json table has no %q column", col)
		}
	}
	for _, r := range tbl.Rows {
		onFrontier, wantFrontier := r.Values["frontier"] == 1, r.Label == "pabst+pabst"
		if onFrontier != wantFrontier {
			t.Errorf("%s at load %.0f: frontier=%v (err %.1f%%, p99 %.0f), want %v",
				r.Label, r.Values["load"], onFrontier, r.Values["err-%"], r.Values["p99-hi"], wantFrontier)
		}
	}
}

func TestTable3Renders(t *testing.T) {
	s := Table3(pabst.Default32Config())
	for _, want := range []string{"32", "mesh", "DRAM timing", "PABST", "8x4"} {
		if !strings.Contains(s, want) && !strings.Contains(strings.ToLower(s), strings.ToLower(want)) {
			t.Fatalf("Table3 output missing %q:\n%s", want, s)
		}
	}
}

func TestTableString(t *testing.T) {
	tb := &Table{Title: "t", Columns: []string{"a", "b"}}
	tb.Rows = append(tb.Rows, Row{Label: "r1", Values: map[string]float64{"a": 1}})
	s := tb.String()
	if !strings.Contains(s, "r1") || !strings.Contains(s, "1.000") || !strings.Contains(s, "-") {
		t.Fatalf("table rendering broken:\n%s", s)
	}
}

func TestScaleApply(t *testing.T) {
	cfg := Quick().Apply(pabst.Default32Config())
	if cfg.PABST.EpochCycles != Quick().Epoch || cfg.BWWindow != Quick().Window {
		t.Fatal("Scale.Apply did not stamp timing parameters")
	}
	if Full().Epoch != 20000 {
		t.Fatalf("full scale epoch %d, want the paper's 10µs = 20000 cycles", Full().Epoch)
	}
}
