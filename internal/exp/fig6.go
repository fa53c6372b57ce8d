package exp

import "pabst"

// Fig6Result summarizes the work-conservation experiment: the constant
// streamer's share of delivered bandwidth while the periodic class is in
// each of its phases, plus the full time series.
type Fig6Result struct {
	Series *SeriesResult

	// ConstShareActive is the constant streamer's mean share in windows
	// where the periodic class is actively streaming from memory.
	ConstShareActive float64
	// ConstBpcIdle is the constant streamer's mean bandwidth (bytes per
	// cycle) in windows where the periodic class is cache-resident; under
	// work conservation it approaches the full system peak.
	ConstBpcIdle float64
	// PeakBpc is the configured aggregate bus limit.
	PeakBpc float64
	// IdleWindows/ActiveWindows count classified samples.
	IdleWindows, ActiveWindows int
}

// Fig6 reproduces Figure 6: a periodic streamer holding a 70% allocation
// alternates between memory- and cache-resident phases; a constant
// streamer holding 30% must soak up the released bandwidth immediately
// and fall back to its share when the periodic class returns.
func Fig6(scale Scale) (*Fig6Result, error) {
	cfg := scale.Apply(pabst.Default32Config())
	b := pabst.NewBuilder(cfg, pabst.ModePABST, scale.Options()...)
	per := b.AddClass("periodic-70", 7, cfg.L3Ways/2)
	con := b.AddClass("constant-30", 3, cfg.L3Ways/2)

	// Periodic: 16 tiles with wall-clock-synchronized phases. Each phase
	// spans 40 governor epochs: the governor's re-adaptation ramp takes
	// roughly 13 epochs (a multiplicative search across a ~12x rate
	// range), so the plateau dominates each phase.
	phase := 40 * scale.Epoch
	measure := 5 * phase
	for i := 0; i < 16; i++ {
		cached := pabst.Region{Base: pabst.TileRegion(i).Base + (128 << 20), Size: 128 << 10}
		b.Attach(i, per, pabst.Periodic("periodic", pabst.TileRegion(i), cached, phase, phase))
	}
	attachStreams(b, con, 16, 32, false)

	sys, err := b.Build()
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	sys.Run(scale.Warmup + measure)

	ser := sys.Series()
	res := &Fig6Result{
		Series: &SeriesResult{Classes: []string{"periodic-70", "constant-30"}},
		PeakBpc: func() float64 {
			c := sys.Config()
			return c.PeakBytesPerCycle()
		}(),
	}
	var activeSum, idleSum float64
	idleRun, activeRun := 0, 0
	for i := range ser.Samples {
		cycle := ser.Samples[i].Cycle
		shPer := ser.ShareOf(i, per)
		shCon := ser.ShareOf(i, con)
		bpcSum := ser.BytesPerCycle(i, per) + ser.BytesPerCycle(i, con)
		res.Series.Points = append(res.Series.Points, SeriesPoint{
			Cycle: cycle, Shares: []float64{shPer, shCon}, BpcSum: bpcSum,
		})
		if cycle <= scale.Warmup {
			continue
		}
		// Label the window by the periodic class's memory activity,
		// and only score windows deep inside a phase (run length >= 3)
		// so the governor's adaptation ramps are not averaged into the
		// plateau levels.
		deep := int(16 * scale.Epoch / scale.Window) // past the adaptation ramp
		if deep < 3 {
			deep = 3
		}
		if ser.BytesPerCycle(i, per) < 0.1*res.PeakBpc {
			idleRun++
			activeRun = 0
			if idleRun >= deep {
				idleSum += ser.BytesPerCycle(i, con)
				res.IdleWindows++
			}
		} else {
			activeRun++
			idleRun = 0
			if activeRun >= deep {
				activeSum += shCon
				res.ActiveWindows++
			}
		}
	}
	if res.ActiveWindows > 0 {
		res.ConstShareActive = activeSum / float64(res.ActiveWindows)
	}
	if res.IdleWindows > 0 {
		res.ConstBpcIdle = idleSum / float64(res.IdleWindows)
	}
	return res, nil
}

// Table renders the Figure 6 summary.
func (r *Fig6Result) Table() *Table {
	t := &Table{
		Title:   "Figure 6: work conservation (periodic 70% + constant 30%)",
		Columns: []string{"value"},
	}
	t.Rows = append(t.Rows,
		Row{Label: "constant share, periodic active", Values: map[string]float64{"value": r.ConstShareActive}},
		Row{Label: "constant B/cyc, periodic idle", Values: map[string]float64{"value": r.ConstBpcIdle}},
		Row{Label: "system peak B/cyc", Values: map[string]float64{"value": r.PeakBpc}},
		Row{Label: "idle windows", Values: map[string]float64{"value": float64(r.IdleWindows)}},
		Row{Label: "active windows", Values: map[string]float64{"value": float64(r.ActiveWindows)}},
	)
	return t
}
