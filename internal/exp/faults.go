package exp

import (
	"fmt"

	"pabst"
)

// FaultsRun summarizes one arm (clean or faulted) of the fault
// experiment: the Figure 5 scenario's steady shares and how far the
// achieved ratio sits from the entitled 7:3 split (Eq. 5).
type FaultsRun struct {
	Shares   []float64 // hi, lo
	AllocErr float64   // relative error of hi:lo vs 7:3
	BpcSum   float64
}

// FaultsResult compares the 7:3 proportional-allocation scenario with
// and without an active fault plan. The faulted arm runs with the
// degradation knobs armed (watchdog + fallback + resync), so the result
// shows what the mechanism holds onto when its feedback loop is under
// attack.
type FaultsResult struct {
	Plan           string
	Clean, Faulted FaultsRun
	// Report carries the degradation counters. When the result comes
	// back through the experiment seam, only the scalar counters are
	// populated — Report.Injected stays nil (use FaultsInjected).
	Report         pabst.FaultReport
	FaultsInjected uint64
}

// Table renders the clean-vs-faulted comparison plus the degradation
// counters.
func (r *FaultsResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Faults: 7:3 allocation under plan %q vs clean", r.Plan),
		Columns: []string{"share-hi", "share-lo", "alloc-err", "B/cyc"},
	}
	row := func(label string, a FaultsRun) {
		t.Rows = append(t.Rows, Row{Label: label, Values: map[string]float64{
			"share-hi":  a.Shares[0],
			"share-lo":  a.Shares[1],
			"alloc-err": a.AllocErr,
			"B/cyc":     a.BpcSum,
		}})
	}
	row("clean", r.Clean)
	row("faulted+degradation", r.Faulted)
	t.Rows = append(t.Rows, Row{Label: "faults injected", Values: map[string]float64{
		"share-hi": float64(r.FaultsInjected),
	}})
	t.Rows = append(t.Rows, Row{Label: "stale/decay/resync", Values: map[string]float64{
		"share-hi":  float64(r.Report.StaleIntervals),
		"share-lo":  float64(r.Report.Decays),
		"alloc-err": float64(r.Report.ResyncEpochs),
	}})
	t.Rows = append(t.Rows, Row{Label: "divergence max/epochs", Values: map[string]float64{
		"share-hi": float64(r.Report.DivergenceMax),
		"share-lo": float64(r.Report.DivergedEpochs),
		"B/cyc":    float64(r.Report.ReconvergeEpochs),
	}})
	return t
}
