package exp

import (
	"context"

	"pabst"
)

// ServiceStats summarizes one memcached run's transaction service times
// in cycles.
type ServiceStats struct {
	Label        string
	Transactions uint64
	Mean         float64
	Min          uint64
	P50, P95     uint64
	P99, P999    uint64
	Max          uint64
}

// Fig9Result compares memcached service-time distributions in isolation,
// co-located without QoS, and co-located under PABST with a 20:1 share.
type Fig9Result struct {
	Isolated  ServiceStats
	Colocated ServiceStats
	PABST     ServiceStats
}

// Fig9 reproduces Figure 9 on the 4x-scaled 8-core system: one memcached
// server tile, with the remaining seven tiles running the stream
// aggressor in the co-located configurations.
func Fig9(scale Scale) (*Fig9Result, error) {
	run := func(label string, colocate bool, mode pabst.Mode) (ServiceStats, error) {
		cfg := scale.Apply(pabst.Scaled8Config())
		b := pabst.NewBuilder(cfg, mode, scale.Options()...)
		mcCls := b.AddClass("memcached", 20, cfg.L3Ways/2)
		agCls := b.AddClass("aggressor", 1, cfg.L3Ways/2)
		server := pabst.MemcachedServer(pabst.TileRegion(0), 11)
		b.Attach(0, mcCls, server)
		if colocate {
			attachStreams(b, agCls, 1, 8, false)
		}
		sys, err := warmed(context.Background(), b, scale.Warmup)
		if err != nil {
			return ServiceStats{}, err
		}
		defer sys.Close()
		server.ResetStats()
		sys.Run(scale.Measure * 2) // service times need many transactions
		h := server.ServiceTimes()
		return ServiceStats{
			Label:        label,
			Transactions: h.Count(),
			Mean:         h.Mean(),
			Min:          h.Min(),
			P50:          h.Percentile(50),
			P95:          h.Percentile(95),
			P99:          h.Percentile(99),
			P999:         h.Percentile(99.9),
			Max:          h.Max(),
		}, nil
	}

	// Three independent machines, Scale.Parallel at a time, results by index.
	arms := []struct {
		label    string
		colocate bool
		mode     pabst.Mode
	}{
		{"isolated", false, pabst.ModeNone},
		{"colocated-noqos", true, pabst.ModeNone},
		{"colocated-pabst", true, pabst.ModePABST},
	}
	var out [3]ServiceStats
	err := ForEach(context.Background(), scale.Parallel, len(arms), func(i int) (err error) {
		out[i], err = run(arms[i].label, arms[i].colocate, arms[i].mode)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Fig9Result{Isolated: out[0], Colocated: out[1], PABST: out[2]}, nil
}

// Table renders the Figure 9 summary.
func (r *Fig9Result) Table() *Table {
	t := &Table{
		Title:   "Figure 9: memcached service times under co-location (cycles; 20:1 shares)",
		Columns: []string{"txns", "mean", "p50", "p95", "p99", "p99.9"},
	}
	for _, s := range []ServiceStats{r.Isolated, r.Colocated, r.PABST} {
		t.Rows = append(t.Rows, Row{
			Label: s.Label,
			Values: map[string]float64{
				"txns":  float64(s.Transactions),
				"mean":  s.Mean,
				"p50":   float64(s.P50),
				"p95":   float64(s.P95),
				"p99":   float64(s.P99),
				"p99.9": float64(s.P999),
			},
		})
	}
	return t
}
