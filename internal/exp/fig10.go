package exp

import "pabst"

// IsolationCell is one (workload, mode) measurement of the Figure 10/12
// experiment: 16 cores of a SPEC proxy co-run with a 16-core stream
// aggressor at a 32:1 share ratio.
type IsolationCell struct {
	Workload string
	Mode     pabst.Mode

	WeightedSlowdown float64 // Figure 10 metric
	Efficiency       float64 // Figure 12 metric (bus busy / bus pending)
	SpecShare        float64 // SPEC class's share of DRAM traffic
}

// IsolationResult holds the whole grid plus the isolated references.
type IsolationResult struct {
	Workloads []string
	Cells     map[string]map[pabst.Mode]IsolationCell // workload -> mode
	// IsolatedIPC holds each workload's per-tile isolated IPC reference.
	IsolatedIPC map[string][]float64
	// IsolatedEfficiency is the no-aggressor memory efficiency.
	IsolatedEfficiency map[string]float64
}

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

// SlowdownTable renders the Figure 10 grid.
func (r *IsolationResult) SlowdownTable() *Table {
	t := &Table{
		Title:   "Figure 10: weighted slowdown vs 16-core stream aggressor (32:1 shares)",
		Columns: modeColumns(),
	}
	sums := map[pabst.Mode]float64{}
	for _, w := range r.Workloads {
		row := Row{Label: w, Values: map[string]float64{}}
		for _, mode := range paperModes {
			c := r.Cells[w][mode]
			row.Values[mode.String()] = c.WeightedSlowdown
			sums[mode] += c.WeightedSlowdown
		}
		t.Rows = append(t.Rows, row)
	}
	avg := Row{Label: "average", Values: map[string]float64{}}
	for _, mode := range paperModes {
		avg.Values[mode.String()] = sums[mode] / float64(len(r.Workloads))
	}
	t.Rows = append(t.Rows, avg)
	return t
}

// EfficiencyTable renders the Figure 12 grid.
func (r *IsolationResult) EfficiencyTable() *Table {
	t := &Table{
		Title:   "Figure 12: memory efficiency under QoS (bus busy / bus pending)",
		Columns: modeColumns(),
	}
	for _, w := range r.Workloads {
		row := Row{Label: w, Values: map[string]float64{}}
		for _, mode := range paperModes {
			row.Values[mode.String()] = r.Cells[w][mode].Efficiency
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
