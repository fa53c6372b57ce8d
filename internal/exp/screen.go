package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
)

// Surrogate screening: evaluate the cross-policy grid analytically
// first, then spend cycle simulations only where they can change the
// answer. A grid point is skipped when the twin is confident about it
// AND some confidently-predicted point at the same load dominates it by
// a wide margin on both Pareto axes — a point that far inside the
// predicted frontier cannot reach the true frontier unless the twin is
// wrong by more than its gated error budget. Everything else (near the
// predicted frontier, or low-confidence) simulates.
const (
	// screenMargin is the relative dominance margin: j must beat i by
	// 50% on BOTH predicted axes before i may be skipped. The twin's
	// gated mean share error (TwinShareTol) sits far inside this.
	screenMargin = 0.5
	// screenErrSlack is an additive share-error slack in percent points:
	// it keeps near-zero predicted errors (the feedback pairs predict
	// the entitled split exactly) from dominating everything for free.
	screenErrSlack = 2.0
	// screenMinConf is the confidence floor: below it a prediction
	// neither skips its point nor justifies skipping another.
	screenMinConf = 0.5
)

// ScreenDecision records the twin's verdict on one grid point.
type ScreenDecision struct {
	Spec RunSpec `json:"spec"`
	Pair string  `json:"pair"`
	Load int     `json:"load"`

	PredShareErr float64 `json:"pred_share_err_pct"`
	PredP99      float64 `json:"pred_p99"`
	Confidence   float64 `json:"confidence"`

	// Simulate says the point goes to the cycle simulator; Reason says
	// why (or why not).
	Simulate bool   `json:"simulate"`
	Reason   string `json:"reason"`
}

// ScreenReport journals one screened sweep: every decision, the counts,
// and the Pareto points of the simulated subset — BENCH_screen.json.
type ScreenReport struct {
	Scale         string           `json:"scale"`
	Margin        float64          `json:"margin"`
	MinConfidence float64          `json:"min_confidence"`
	Total         int              `json:"total"`
	Simulated     int              `json:"simulated"`
	Skipped       int              `json:"skipped"`
	Decisions     []ScreenDecision `json:"decisions"`
	Points        []ParetoPoint    `json:"points"`
}

// ScreenDecisions evaluates the full cross-policy grid with the
// analytical twin and decides which points need a cycle simulation.
// Pure prediction — no simulation happens here.
func ScreenDecisions(scale Scale) ([]ScreenDecision, error) {
	ex, name := execFor(scale)
	specs := paretoSpecs(name)
	ds := make([]ScreenDecision, len(specs))
	for i, rs := range specs {
		pred, err := PredictSpec(rs, ex)
		if err != nil {
			return nil, err
		}
		ds[i] = ScreenDecision{
			Spec:         rs,
			Pair:         rs.Policy,
			Load:         rs.load(),
			PredShareErr: pred.ShareErrPct,
			PredP99:      pred.P99Hi,
			Confidence:   pred.Confidence,
		}
	}
	for i := range ds {
		if ds[i].Confidence < screenMinConf {
			ds[i].Simulate = true
			ds[i].Reason = fmt.Sprintf("low confidence (%.2f < %.2f)", ds[i].Confidence, screenMinConf)
			continue
		}
		dom := -1
		for j := range ds {
			if j == i || ds[j].Load != ds[i].Load || ds[j].Confidence < screenMinConf {
				continue
			}
			errDominates := ds[j].PredShareErr*(1+screenMargin)+screenErrSlack <= ds[i].PredShareErr
			p99Dominates := ds[j].PredP99*(1+screenMargin) <= ds[i].PredP99
			if errDominates && p99Dominates {
				dom = j
				break
			}
		}
		if dom >= 0 {
			ds[i].Simulate = false
			ds[i].Reason = fmt.Sprintf("dominated by %s at load %d beyond the %.0f%% margin",
				ds[dom].Pair, ds[dom].Load, screenMargin*100)
		} else {
			ds[i].Simulate = true
			ds[i].Reason = "near predicted frontier"
		}
	}
	return ds, nil
}

// ScreenedPolicyPareto runs the surrogate-screened cross-policy sweep:
// twin predictions pick the candidate set, only those points simulate,
// and the frontier is marked on the simulated subset. The report
// journals every skip with its justification.
func ScreenedPolicyPareto(scale Scale) (*ScreenReport, *Table, error) {
	ds, err := ScreenDecisions(scale)
	if err != nil {
		return nil, nil, err
	}
	rep := &ScreenReport{
		Scale:         scale.Name,
		Margin:        screenMargin,
		MinConfidence: screenMinConf,
		Total:         len(ds),
		Decisions:     ds,
	}
	var simSpecs []RunSpec
	for _, d := range ds {
		if d.Simulate {
			simSpecs = append(simSpecs, d.Spec)
		}
	}
	rep.Simulated = len(simSpecs)
	rep.Skipped = rep.Total - rep.Simulated

	// The surviving points run as an unregistered experiment: same
	// dispatch, fingerprint grouping and reduction as the full "pareto".
	e := &expDef{
		name:   "screened-pareto",
		spec:   func(string) []RunSpec { return simSpecs },
		reduce: paretoReduce,
	}
	table, specs, results, err := RunExperimentScale(context.Background(), e, scale, nil)
	if err != nil {
		return nil, nil, err
	}
	if rep.Points, err = ParetoFromRuns(specs, results); err != nil {
		return nil, nil, err
	}
	return rep, table, nil
}

// WriteScreenJSON serializes the screened sweep as indented JSON.
func WriteScreenJSON(w io.Writer, rep *ScreenReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
