package exp

import (
	"fmt"

	"pabst/internal/config"
	"pabst/internal/twin"
)

// TwinPrediction is the analytical twin's answer for one RunSpec, in
// the same units the simulated RunResult reports.
type TwinPrediction struct {
	// ShareHi predicts the high class's DRAM-traffic share;
	// ShareErrPct is its relative error against the bench's entitled
	// share, in percent (0 when the bench declares no entitlement).
	ShareHi     float64 `json:"share_hi"`
	ShareErrPct float64 `json:"share_err_pct"`
	// P99Hi / P99Lo are tail-latency proxies in cycles.
	P99Hi float64 `json:"p99_hi"`
	P99Lo float64 `json:"p99_lo"`
	// Util is predicted DRAM data-bus utilization; TotalBPC predicted
	// delivered bytes per cycle.
	Util     float64 `json:"util"`
	TotalBPC float64 `json:"total_bpc"`
	// Confidence in [0,1]; 0 means "simulate this, do not trust me"
	// (unhooked policy, non-convergence). Converged reports the fixed
	// point's status.
	Confidence float64 `json:"confidence"`
	Converged  bool    `json:"converged"`
}

// PredictSpec runs the analytical twin on a RunSpec: microseconds of
// fixed-point arithmetic instead of a cycle simulation. Benches without
// a closed-form demand description (SPEC proxies, phase-driven and
// filtered generators) return an error — the twin predicts only
// what it can parameterize, everything else must simulate.
func PredictSpec(rs RunSpec, ex Exec) (TwinPrediction, error) {
	cfg, sc, err := ex.Resolve(rs)
	if err != nil {
		return TwinPrediction{}, err
	}
	def := benchRegistry[rs.Bench]
	if def.loads == nil {
		return TwinPrediction{}, fmt.Errorf("%w: bench %q has no analytical load model",
			config.ErrInvalid, rs.Bench)
	}
	pair, err := rs.pair(sc)
	if err != nil {
		return TwinPrediction{}, err // unreachable past Resolve
	}
	p, err := twin.New(cfg).Solve(pair.Source, pair.Target, def.loads(rs, cfg))
	if err != nil {
		return TwinPrediction{}, err
	}
	out := TwinPrediction{
		ShareHi:    p.Shares[0],
		P99Hi:      p.P99Lat[0],
		Util:       p.Util,
		TotalBPC:   p.TotalBPC,
		Confidence: p.Confidence,
		Converged:  p.Converged,
	}
	if len(p.Shares) > 1 {
		out.P99Lo = p.P99Lat[1]
	}
	if e := def.entitledHi; e > 0 {
		out.ShareErrPct = abs(out.ShareHi-e) / e * 100
	}
	return out, nil
}
