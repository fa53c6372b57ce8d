package main

import "time"

// driverSpans is how many equal spans one isolated driver is timed
// over; its metric is the fastest span (see fastestRate).
const driverSpans = 5

// runDrivers times every isolated layer driver and returns each metric's
// spans. Each span batches at least 10k calls, so the clock reads are
// noise next to the calls they bracket.
func runDrivers(tr *tracer, seed uint64, smoke bool) map[string][]float64 {
	out := map[string][]float64{}
	root := tr.begin(0, "drivers")
	for _, d := range layerDrivers(seed) {
		batch, div := d.batch, max(d.div, 1)
		if smoke {
			batch = max(batch/50, 1)
		}
		d.op(batch / 10) // first calls grow rings and pools
		var per, per2 []float64
		for i := 0; i < driverSpans; i++ {
			id := tr.begin(root, "driver:"+d.metric+d.metric2)
			t0 := time.Now()
			secondary := d.op(batch)
			ns := float64(time.Since(t0).Nanoseconds())
			tr.end(id)
			tr.count(id, map[string]float64{"calls": float64(batch), "secondary": float64(secondary)})
			per = append(per, ns/float64(batch)/div)
			if secondary > 0 {
				per2 = append(per2, ns/float64(secondary)/div)
			}
		}
		if d.metric != "" {
			out[d.metric] = per
		}
		if d.metric2 != "" {
			out[d.metric2] = per2
		}
	}
	tr.end(root)
	return out
}
