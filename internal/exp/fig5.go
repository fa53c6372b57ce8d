package exp

import (
	"pabst"
)

// SeriesPoint is one window of a bandwidth-over-time plot.
type SeriesPoint struct {
	Cycle  uint64
	Shares []float64 // per class, in class order
	BpcSum float64
}

// SeriesResult is a time-series experiment outcome.
type SeriesResult struct {
	Classes []string
	Points  []SeriesPoint

	// SteadyShares are the mean shares over the measured (post-warmup)
	// region.
	SteadyShares []float64
	// ConvergedAt is the first measured cycle from which the high class's
	// share stays within 10% of its entitlement (0 = never).
	ConvergedAt uint64
	// Convergence carries the full dynamics analysis of the high class's
	// share series (settling index, overshoot, steady-state ripple).
	Convergence pabst.Convergence
}

// Fig5Series reproduces Figure 5: two 16-core read-stream classes with
// a 7:3 allocation under PABST, observed from cold start as a
// share-over-time series. The series must converge quickly to 70/30 and
// hold steady.
//
// This is deliberately NOT a registry experiment: RunSpec runs measure
// a warmed steady state, while this path watches the governors converge
// from cycle zero — a different observable that has no warmed
// equivalent. The warmed 7:3 machine is RunSpec{Bench: BenchStreams}.
func Fig5Series(scale Scale) (*SeriesResult, error) {
	cfg := scale.Apply(pabst.Default32Config())
	b := pabst.NewBuilder(cfg, pabst.ModePABST, scale.Options()...)
	hi := b.AddClass("70%-class", 7, cfg.L3Ways/2)
	lo := b.AddClass("30%-class", 3, cfg.L3Ways/2)
	attachStreams(b, hi, 0, 16, false)
	attachStreams(b, lo, 16, 32, false)
	sys, err := b.Build()
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	// No warmup reset: Figure 5 shows convergence from cold start. Run
	// warmup+measure as one observed stretch.
	sys.Run(scale.Warmup + scale.Measure)

	res := &SeriesResult{Classes: []string{"70%-class", "30%-class"}}
	ser := sys.Series()
	for i := range ser.Samples {
		p := SeriesPoint{
			Cycle:  ser.Samples[i].Cycle,
			Shares: []float64{ser.ShareOf(i, hi), ser.ShareOf(i, lo)},
			BpcSum: ser.BytesPerCycle(i, hi) + ser.BytesPerCycle(i, lo),
		}
		res.Points = append(res.Points, p)
	}
	// Steady region: samples after warmup.
	first := 0
	for i, p := range res.Points {
		if p.Cycle > scale.Warmup {
			first = i
			break
		}
	}
	res.SteadyShares = []float64{
		ser.MeanShare(first, len(res.Points), hi),
		ser.MeanShare(first, len(res.Points), lo),
	}
	// Convergence: first point after which hi stays within ±0.1 of 0.7
	// for at least 10 consecutive windows, plus overshoot and ripple,
	// via the shared dynamics analyzer.
	hiShares := make([]float64, len(res.Points))
	for i, p := range res.Points {
		hiShares[i] = p.Shares[0]
	}
	res.Convergence = pabst.AnalyzeConvergence(hiShares, 0.7, 0.1, 10)
	if res.Convergence.Settled {
		res.ConvergedAt = res.Points[res.Convergence.SettledAt].Cycle
	}
	return res, nil
}

// Table renders the series summary (the full series is available in
// Points for plotting).
func (r *SeriesResult) Table(title string) *Table {
	t := &Table{Title: title, Columns: []string{"steady-share", "entitled"}}
	entitled := []float64{0.7, 0.3}
	for i, name := range r.Classes {
		row := Row{Label: name, Values: map[string]float64{"steady-share": r.SteadyShares[i]}}
		if i < len(entitled) {
			row.Values["entitled"] = entitled[i]
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
