package exp

import (
	"context"
	"encoding/json"
	"io"
)

// Twin prediction-error tolerances: the standing divergence `make
// bench-twin` gates (BENCH_twin.json). Share error is the primary gate
// — it is what the screener ranks on; latency and utilization are
// proxy-grade and carry looser bounds.
const (
	// TwinShareTol bounds the MEAN absolute share error across the
	// operating points.
	TwinShareTol = 0.06
	// TwinP99Tol bounds the mean relative p99-latency error.
	TwinP99Tol = 0.45
	// TwinUtilTol bounds the mean relative bus-utilization error.
	TwinUtilTol = 0.15
)

// TwinPoint is one operating point of the twin-vs-simulator validation:
// the spec, both answers, and the per-metric divergence.
type TwinPoint struct {
	Spec RunSpec        `json:"spec"`
	Sim  RunResult      `json:"sim"`
	Pred TwinPrediction `json:"pred"`

	// ShareAbsErr is |pred − sim| on the high class's share (absolute:
	// shares live in [0,1], so 0.01 means one share point).
	ShareAbsErr float64 `json:"share_abs_err"`
	// P99RelErr / UtilRelErr are relative errors against the simulated
	// value.
	P99RelErr  float64 `json:"p99_rel_err"`
	UtilRelErr float64 `json:"util_rel_err"`
}

// TwinSummary aggregates the per-metric divergence.
type TwinSummary struct {
	Points          int     `json:"points"`
	MeanShareAbsErr float64 `json:"mean_share_abs_err"`
	MaxShareAbsErr  float64 `json:"max_share_abs_err"`
	MeanP99RelErr   float64 `json:"mean_p99_rel_err"`
	MaxP99RelErr    float64 `json:"max_p99_rel_err"`
	MeanUtilRelErr  float64 `json:"mean_util_rel_err"`
	MaxUtilRelErr   float64 `json:"max_util_rel_err"`
}

// TwinTolerance is the declared gate, serialized next to the measured
// divergence so the JSON is self-describing.
type TwinTolerance struct {
	MeanShareAbsErr float64 `json:"mean_share_abs_err"`
	MeanP99RelErr   float64 `json:"mean_p99_rel_err"`
	MeanUtilRelErr  float64 `json:"mean_util_rel_err"`
}

// TwinBench is the serialized form of one twin validation sweep —
// BENCH_twin.json.
type TwinBench struct {
	Scale     string        `json:"scale"`
	Points    []TwinPoint   `json:"points"`
	Summary   TwinSummary   `json:"summary"`
	Tolerance TwinTolerance `json:"tolerance"`
	Pass      bool          `json:"pass"`
}

// TwinBenchSpecs returns the validation operating points: the Figure 1
// grid (both mixes under the single-sided modes — the regimes where the
// allocation model has to predict partial regulation), the Figure 5
// steady state, and the full cross-policy Pareto grid.
func TwinBenchSpecs(scale string) []RunSpec {
	specs := regulationSpecs(scale, paperModes[1:3])
	specs = append(specs, RunSpec{Bench: BenchStreams, Scale: scale})
	specs = append(specs, paretoSpecs(scale)...)
	return specs
}

// RunTwinBench simulates every validation point, predicts it with the
// twin, and aggregates the divergence against the declared tolerances.
func RunTwinBench(scale Scale) (*TwinBench, error) {
	// The validation points run as an unregistered experiment, through
	// RunExperiment like every other grid; folding them into TwinPoints
	// needs the twin's predictions and happens below.
	ex, name := execFor(scale)
	grid := &expDef{
		name:   "twin-bench",
		spec:   TwinBenchSpecs,
		reduce: func([]RunSpec, []RunResult) (*Table, error) { return nil, nil },
	}
	_, specs, sims, err := RunExperiment(context.Background(), grid, name, ex, scale.Parallel, nil)
	if err != nil {
		return nil, err
	}
	points := make([]TwinPoint, len(specs))
	for i, sim := range sims {
		pred, err := PredictSpec(specs[i], ex)
		if err != nil {
			return nil, err
		}
		p := TwinPoint{Spec: specs[i], Sim: sim, Pred: pred}
		p.ShareAbsErr = abs(pred.ShareHi - sim.ShareHi)
		if sim.P99Hi > 0 {
			p.P99RelErr = abs(pred.P99Hi-float64(sim.P99Hi)) / float64(sim.P99Hi)
		}
		if sim.BusUtil > 0 {
			p.UtilRelErr = abs(pred.Util-sim.BusUtil) / sim.BusUtil
		}
		points[i] = p
	}

	b := &TwinBench{
		Scale:  name,
		Points: points,
		Tolerance: TwinTolerance{
			MeanShareAbsErr: TwinShareTol,
			MeanP99RelErr:   TwinP99Tol,
			MeanUtilRelErr:  TwinUtilTol,
		},
	}
	s := &b.Summary
	s.Points = len(points)
	for _, p := range points {
		s.MeanShareAbsErr += p.ShareAbsErr
		s.MeanP99RelErr += p.P99RelErr
		s.MeanUtilRelErr += p.UtilRelErr
		if p.ShareAbsErr > s.MaxShareAbsErr {
			s.MaxShareAbsErr = p.ShareAbsErr
		}
		if p.P99RelErr > s.MaxP99RelErr {
			s.MaxP99RelErr = p.P99RelErr
		}
		if p.UtilRelErr > s.MaxUtilRelErr {
			s.MaxUtilRelErr = p.UtilRelErr
		}
	}
	n := float64(len(points))
	s.MeanShareAbsErr /= n
	s.MeanP99RelErr /= n
	s.MeanUtilRelErr /= n
	b.Pass = s.MeanShareAbsErr <= TwinShareTol &&
		s.MeanP99RelErr <= TwinP99Tol &&
		s.MeanUtilRelErr <= TwinUtilTol
	return b, nil
}

// WriteTwinJSON serializes the validation sweep as indented JSON.
func WriteTwinJSON(w io.Writer, b *TwinBench) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
