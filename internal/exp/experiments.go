package exp

import (
	"fmt"

	"pabst"
	"pabst/internal/config"
)

// expDef is the table-driven Experiment implementation all the built-in
// experiments use.
type expDef struct {
	name   string
	desc   string
	spec   func(scale string) []RunSpec
	reduce func(specs []RunSpec, results []RunResult) (*Table, error)
}

func (e *expDef) Name() string             { return e.name }
func (e *expDef) Desc() string             { return e.desc }
func (e *expDef) Spec(sc string) []RunSpec { return e.spec(sc) }
func (e *expDef) Reduce(s []RunSpec, r []RunResult) (*Table, error) {
	return e.reduce(s, r)
}

// regulationMixes maps the Figure 1 benches to their row labels.
var regulationMixes = []struct {
	bench string
	label string
}{
	{BenchWStreams31, "stream+stream"},
	{BenchChaser, "chaser+stream"},
}

// shareErrorAt is the Figure 1 allocation-error metric generalized to
// any entitlement: the mean relative error of the two observed shares
// against (entitled, 1-entitled), in percent.
func shareErrorAt(entitled, hi, lo float64) float64 {
	eHi := abs(hi-entitled) / entitled
	eLo := abs(lo-(1-entitled)) / (1 - entitled)
	return (eHi + eLo) / 2 * 100
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// regulationSpecs builds the Figure 1/7 grid: each mix under each mode.
func regulationSpecs(scale string, modes []pabst.Mode) []RunSpec {
	var specs []RunSpec
	for _, mix := range regulationMixes {
		for _, mode := range modes {
			specs = append(specs, RunSpec{Bench: mix.bench, Scale: scale, Mode: mode.String()})
		}
	}
	return specs
}

// regulationReduce renders the grid in the Figure 1 layout.
func regulationReduce(title string) func([]RunSpec, []RunResult) (*Table, error) {
	return func(specs []RunSpec, results []RunResult) (*Table, error) {
		t := &Table{
			Title:   title,
			Columns: []string{"share-hi", "share-lo", "err-%", "total-B/cyc"},
		}
		for i, rs := range specs {
			mix := rs.Bench
			for _, m := range regulationMixes {
				if m.bench == rs.Bench {
					mix = m.label
				}
			}
			r := results[i]
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("%s / %s", mix, rs.Mode),
				Values: map[string]float64{
					"share-hi":    r.Shares[0],
					"share-lo":    r.Shares[1],
					"err-%":       shareErrorAt(BenchEntitledHi(rs.Bench), r.Shares[0], r.Shares[1]),
					"total-B/cyc": r.TotalBPC,
				},
			})
		}
		return t, nil
	}
}

// isolationSpecs builds the Figure 10/12 grid: per workload, the
// isolated reference plus every mode against the aggressor (five specs
// per workload, iso first).
func isolationSpecs(scale string, workloads []string) []RunSpec {
	var specs []RunSpec
	for _, w := range workloads {
		specs = append(specs, RunSpec{Bench: BenchSpecIso, Scale: scale, Workload: w, Mode: "none"})
		for _, mode := range paperModes {
			specs = append(specs, RunSpec{Bench: BenchSpecMix, Scale: scale, Workload: w, Mode: mode.String()})
		}
	}
	return specs
}

// weightedSlowdown is the Figure 10 metric: the harmonic mean of the
// per-tile slowdowns of a co-run against the isolated reference.
func weightedSlowdown(iso, co []float64) float64 {
	var speedup float64
	n := 0
	for i := range iso {
		if iso[i] <= 0 {
			continue
		}
		speedup += co[i] / iso[i]
		n++
	}
	if speedup == 0 || n == 0 {
		return 0
	}
	return float64(n) / speedup
}

// NewIsolationExperiment builds a Figure 10 (weighted slowdown) or
// Figure 12 (memory efficiency) experiment over the given workloads
// (nil means every SPEC proxy): 16 cores of a SPEC proxy co-run with a
// 16-core stream aggressor at a 32:1 share ratio, one row per workload
// and one column per mode. Both variants emit the same specs, so a
// shared RunCache runs the grid once for the pair.
func NewIsolationExperiment(name, desc string, workloads []string, efficiency bool) Experiment {
	return &expDef{
		name: name,
		desc: desc,
		spec: func(scale string) []RunSpec {
			w := workloads
			if len(w) == 0 {
				w = pabst.SpecNames()
			}
			return isolationSpecs(scale, w)
		},
		reduce: func(specs []RunSpec, results []RunResult) (*Table, error) {
			per := 1 + len(paperModes)
			if len(specs)%per != 0 || len(specs) != len(results) {
				return nil, fmt.Errorf("%w: isolation grid of %d specs is not %d per workload",
					config.ErrInvalid, len(specs), per)
			}
			t := &Table{
				Title:   "Figure 10: weighted slowdown vs 16-core stream aggressor (32:1 shares)",
				Columns: modeColumns(),
			}
			if efficiency {
				t.Title = "Figure 12: memory efficiency under QoS (bus busy / bus pending)"
			}
			avg := Row{Label: "average", Values: map[string]float64{}}
			for g := 0; g < len(specs); g += per {
				iso := results[g]
				row := Row{Label: specs[g].Workload, Values: map[string]float64{}}
				for k, mode := range paperModes {
					co := results[g+1+k]
					v := co.Efficiency
					if !efficiency {
						v = weightedSlowdown(iso.TileIPCHi, co.TileIPCHi)
					}
					row.Values[mode.String()] = v
					avg.Values[mode.String()] += v
				}
				t.Rows = append(t.Rows, row)
			}
			if !efficiency {
				for col := range avg.Values {
					avg.Values[col] /= float64(len(specs) / per)
				}
				t.Rows = append(t.Rows, avg)
			}
			return t, nil
		},
	}
}

// NewFaultsExperiment builds the clean-vs-faulted comparison of the 7:3
// scenario under the named fault plan (a preset name). The
// plan arms the governors' degradation machinery (watchdog + fallback +
// resync), so the table shows what the mechanism holds onto when its
// feedback loop is under attack, plus the degradation counters.
func NewFaultsExperiment(plan string) Experiment {
	return &expDef{
		name: "faults",
		desc: "robustness: 7:3 allocation under an injected fault plan vs clean",
		spec: func(scale string) []RunSpec {
			return []RunSpec{
				{Bench: BenchStreams, Scale: scale},
				{Bench: BenchStreams, Scale: scale, Fault: plan},
			}
		},
		reduce: func(specs []RunSpec, results []RunResult) (*Table, error) {
			if len(specs) != 2 || len(results) != 2 || specs[1].Fault == "" {
				return nil, fmt.Errorf("%w: faults experiment wants [clean, faulted] arms", config.ErrInvalid)
			}
			t := &Table{
				Title:   fmt.Sprintf("Faults: 7:3 allocation under plan %q vs clean", specs[1].Fault),
				Columns: []string{"share-hi", "share-lo", "alloc-err", "B/cyc"},
			}
			for i, label := range []string{"clean", "faulted+degradation"} {
				r := results[i]
				// How far the achieved hi:lo ratio sits from the entitled
				// 7:3 split (Eq. 5).
				var allocErr float64
				if r.Shares[1] > 0 {
					allocErr = abs(r.Shares[0]/r.Shares[1]-7.0/3.0) / (7.0 / 3.0)
				}
				t.Rows = append(t.Rows, Row{Label: label, Values: map[string]float64{
					"share-hi":  r.Shares[0],
					"share-lo":  r.Shares[1],
					"alloc-err": allocErr,
					"B/cyc":     r.TotalBPC,
				}})
			}
			f := results[1].Faults
			if f == nil {
				f = &RunFaults{}
			}
			t.Rows = append(t.Rows,
				Row{Label: "faults injected", Values: map[string]float64{
					"share-hi": float64(f.Injected),
				}},
				Row{Label: "stale/decay/resync", Values: map[string]float64{
					"share-hi":  float64(f.StaleIntervals),
					"share-lo":  float64(f.Decays),
					"alloc-err": float64(f.ResyncEpochs),
				}},
				Row{Label: "divergence max/epochs", Values: map[string]float64{
					"share-hi": float64(f.DivergenceMax),
					"share-lo": float64(f.DivergedEpochs),
					"B/cyc":    float64(f.ReconvergeEpochs),
				}})
			return t, nil
		},
	}
}

// NewFig11Experiment builds the IaaS consolidation experiment over the
// given workloads (nil means every SPEC proxy): per workload, a
// work-conserving 4x25% machine against a static quarter-bandwidth one.
func NewFig11Experiment(workloads []string) Experiment {
	return &expDef{
		name: "fig11",
		desc: "work-conserving IaaS consolidation vs a static 25% allocation",
		spec: func(scale string) []RunSpec {
			w := workloads
			if len(w) == 0 {
				w = pabst.SpecNames()
			}
			var specs []RunSpec
			for _, name := range w {
				specs = append(specs,
					RunSpec{Bench: BenchIaaS, Scale: scale, Workload: name},
					RunSpec{Bench: BenchIaaSStatic, Scale: scale, Workload: name, Mode: "none"})
			}
			return specs
		},
		reduce: func(specs []RunSpec, results []RunResult) (*Table, error) {
			if len(specs)%2 != 0 || len(specs) != len(results) {
				return nil, fmt.Errorf("%w: fig11 grid wants [shared, static] pairs", config.ErrInvalid)
			}
			t := &Table{
				Title:   "Figure 11: work-conserving fairness vs static 25% allocation (4 VMs x 8 CPUs)",
				Columns: []string{"shared-IPC", "static-IPC", "improve-%"},
			}
			for g := 0; g < len(specs); g += 2 {
				// Mean class IPC of the 4x8-core shared machine against 8
				// cores isolated with DDR slowed 4x.
				var shared float64
				for _, ipc := range results[g].IPC {
					shared += ipc
				}
				if n := len(results[g].IPC); n > 0 {
					shared /= float64(n)
				}
				static := results[g+1].IPC[0]
				var improve float64
				if static > 0 {
					improve = (shared/static - 1) * 100
				}
				t.Rows = append(t.Rows, Row{Label: specs[g].Workload, Values: map[string]float64{
					"shared-IPC": shared,
					"static-IPC": static,
					"improve-%":  improve,
				}})
			}
			return t, nil
		},
	}
}

// paretoSpecs is the cross-policy grid: every ParetoPairs mechanism at
// every ParetoLoads utilization, on the 7:3 write-stream mix.
func paretoSpecs(scale string) []RunSpec {
	var specs []RunSpec
	for _, pair := range ParetoPairs() {
		for _, load := range ParetoLoads() {
			specs = append(specs, RunSpec{
				Bench: BenchWStreams,
				Scale: scale,
				// Spelled out even for a preset: the grid's fingerprints
				// and row labels say "pabst+pabst".
				Policy: pair.Source + "+" + pair.Target,
				Load:   load,
			})
		}
	}
	return specs
}

// ParetoFromRuns converts executed paretoSpecs results into the
// ParetoPoint form, frontier marked.
func ParetoFromRuns(specs []RunSpec, results []RunResult) ([]ParetoPoint, error) {
	points := make([]ParetoPoint, len(specs))
	for i, rs := range specs {
		pair, err := pabst.ParseMode(rs.Policy)
		if err != nil {
			return nil, err
		}
		r := results[i]
		points[i] = ParetoPoint{
			Source:   pair.Source,
			Target:   pair.Target,
			Load:     rs.load(),
			ShareHi:  r.ShareHi,
			ShareErr: abs(r.ShareHi-paretoEntitledHi) / paretoEntitledHi * 100,
			P99Hi:    r.P99Hi,
			P99Lo:    r.P99Lo,
			BusUtil:  r.BusUtil,
			TotalBPC: r.TotalBPC,
		}
	}
	markFrontier(points)
	return points, nil
}

// paretoReduce renders an executed pareto grid one row per (pair,
// load), frontier marked.
func paretoReduce(specs []RunSpec, results []RunResult) (*Table, error) {
	points, err := ParetoFromRuns(specs, results)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Cross-policy Pareto: share fidelity vs p99 tail latency (7:3 streams)",
		Columns: []string{"load", "share-hi", "err-%", "p99-hi", "bus-util", "frontier"},
	}
	for _, p := range points {
		front := 0.0
		if p.Frontier {
			front = 1
		}
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("%s+%s", p.Source, p.Target),
			Values: map[string]float64{
				"load":     float64(p.Load),
				"share-hi": p.ShareHi,
				"err-%":    p.ShareErr,
				"p99-hi":   float64(p.P99Hi),
				"bus-util": p.BusUtil,
				"frontier": front,
			},
		})
	}
	return t, nil
}

func init() {
	RegisterExperiment(&expDef{
		name: "fig1",
		desc: "source- vs target-only regulation on both mixes (3:1 allocation)",
		spec: func(scale string) []RunSpec {
			return regulationSpecs(scale, paperModes[1:3])
		},
		reduce: regulationReduce("Figure 1: source- vs target-only regulation (3:1 allocation)"),
	})
	RegisterExperiment(&expDef{
		name: "fig7",
		desc: "PABST vs source-only vs target-only on both mixes (3:1 allocation)",
		spec: func(scale string) []RunSpec {
			return regulationSpecs(scale, paperModes[1:])
		},
		reduce: regulationReduce("Figure 7: PABST vs source-only vs target-only (3:1 allocation)"),
	})
	RegisterExperiment(NewIsolationExperiment("fig10",
		"weighted slowdown of each SPEC proxy vs a 16-core stream aggressor", nil, false))
	RegisterExperiment(NewIsolationExperiment("fig12",
		"memory efficiency under QoS for each SPEC proxy vs the aggressor", nil, true))
	RegisterExperiment(NewFig11Experiment(nil))
	// The ext-* experiments go beyond the paper's evaluation, exercising
	// the discussion-section design points this library also implements:
	// the non-work-conserving static limiter baseline (Related Work), the
	// per-controller saturation alternative (Section III-C1), the
	// heterogeneous intra-class allocation extension (Section V-B), and
	// the contention-modeled mesh against the paper's latency-only fabric.
	RegisterExperiment(&expDef{
		name: "ext-static",
		desc: "work conservation vs a static source limiter on the periodic mix",
		spec: func(scale string) []RunSpec {
			return []RunSpec{
				{Bench: BenchPeriodic, Scale: scale, Mode: "static-source"},
				{Bench: BenchPeriodic, Scale: scale},
			}
		},
		reduce: func(specs []RunSpec, results []RunResult) (*Table, error) {
			// BPC[1] is the constant 30% class: pinned under the static
			// limiter, free to soak up the periodic class's idle phases
			// under PABST.
			cfg := pabst.Default32Config()
			peak := cfg.PeakBytesPerCycle()
			t := &Table{
				Title:   "Extension: work conservation vs a static source limiter (constant 30% class)",
				Columns: []string{"B/cyc", "frac-of-peak"},
			}
			for i, label := range []string{"static limiter", "PABST"} {
				bpc := results[i].BPC[1]
				t.Rows = append(t.Rows, Row{Label: label, Values: map[string]float64{"B/cyc": bpc, "frac-of-peak": bpc / peak}})
			}
			return t, nil
		},
	})
	RegisterExperiment(&expDef{
		name: "ext-skew",
		desc: "global wired-OR vs per-MC governors under channel-skewed traffic",
		spec: func(scale string) []RunSpec {
			return []RunSpec{
				{Bench: BenchSkew, Scale: scale},
				{Bench: BenchSkew, Scale: scale, Params: map[string]uint64{"permc": 1}},
			}
		},
		reduce: func(specs []RunSpec, results []RunResult) (*Table, error) {
			t := &Table{
				Title:   "Extension: per-MC governors under channel-skewed traffic (bus utilization)",
				Columns: []string{"global-SAT", "per-MC-SAT"},
			}
			for i := range results[0].MCUtil {
				label := "channel 0 (hot)"
				if i > 0 {
					label = "channel " + string(rune('0'+i))
				}
				t.Rows = append(t.Rows, Row{Label: label, Values: map[string]float64{
					"global-SAT": results[0].MCUtil[i],
					"per-MC-SAT": results[1].MCUtil[i],
				}})
			}
			return t, nil
		},
	})
	RegisterExperiment(&expDef{
		name: "ext-hetero",
		desc: "even vs demand-feedback intra-class splits for one busy thread of 16",
		spec: func(scale string) []RunSpec {
			return []RunSpec{
				{Bench: BenchHetero, Scale: scale},
				{Bench: BenchHetero, Scale: scale, Params: map[string]uint64{"hetero": 1}},
			}
		},
		reduce: func(specs []RunSpec, results []RunResult) (*Table, error) {
			t := &Table{
				Title:   "Extension: heterogeneous intra-class allocation (one busy thread of 16)",
				Columns: []string{"class-B/cyc"},
			}
			for i, label := range []string{"even split (paper baseline)", "demand feedback (Section V-B)"} {
				t.Rows = append(t.Rows, Row{Label: label, Values: map[string]float64{"class-B/cyc": results[i].BPC[0]}})
			}
			return t, nil
		},
	})
	RegisterExperiment(&expDef{
		name: "ext-noc",
		desc: "7:3 allocation under latency-only, provisioned, and starved fabrics",
		spec: func(scale string) []RunSpec {
			return []RunSpec{
				{Bench: BenchStreams, Scale: scale},
				{Bench: BenchStreams, Scale: scale, Params: map[string]uint64{"noc": 1}},
				{Bench: BenchStreams, Scale: scale, Params: map[string]uint64{"noc": 1, "nocflits": 64}},
			}
		},
		reduce: func(specs []RunSpec, results []RunResult) (*Table, error) {
			t := &Table{
				Title:   "Extension: interconnect provisioning (7:3 allocation under three fabrics)",
				Columns: []string{"share-hi", "total-B/cyc"},
			}
			for i, label := range []string{"latency-only (paper)", "modeled, 16 B/cyc links", "modeled, 1 B/cyc links"} {
				t.Rows = append(t.Rows, Row{Label: label, Values: map[string]float64{
					"share-hi": results[i].ShareHi, "total-B/cyc": results[i].TotalBPC,
				}})
			}
			return t, nil
		},
	})
	RegisterExperiment(NewFaultsExperiment("sat-partition"))
	RegisterExperiment(&expDef{
		name:   "pareto",
		desc:   "cross-policy share fidelity vs p99 tail latency, frontier marked",
		spec:   paretoSpecs,
		reduce: paretoReduce,
	})
}
