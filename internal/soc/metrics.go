package soc

import (
	"pabst/internal/mem"
	"pabst/internal/pabst"
	"pabst/internal/stats"
)

// Metrics summarizes the system's measurement window (since the last
// ResetStats).
type Metrics struct {
	Cycles uint64

	// BytesByClass counts read + writeback data moved on the DRAM buses
	// per class.
	BytesByClass [mem.MaxClasses]uint64

	// Reads/Writes served by all controllers.
	Reads, Writes uint64

	// AvgReadLatency is the mean front-end-enqueue to last-data-beat
	// latency in cycles.
	AvgReadLatency float64

	// BusUtilization is busy data-bus cycles over total cycles across
	// channels (0..1).
	BusUtilization float64

	// Efficiency is busy data-bus cycles over cycles with pending work
	// (the paper's memory-efficiency metric, Figure 12).
	Efficiency float64

	// RowHits counts open-page row-buffer hits.
	RowHits uint64
}

// ResetStats begins a new measurement window: cores, the bandwidth
// baseline, and controller counters are snapshotted; generators with
// resettable state (memcached) are reset by the caller.
func (s *System) ResetStats() {
	for _, t := range s.tiles {
		if t != nil {
			t.core.ResetStats()
		}
	}
	s.base = s.snapshotNow()
	for c := range s.baseLat {
		s.baseLat[c] = stats.Hist{}
	}
	for _, t := range s.tiles {
		if t != nil {
			s.baseLat[t.class].Merge(&t.lat)
		}
	}
}

func (s *System) snapshotNow() snapshot {
	var snap snapshot
	snap.cycle = s.kernel.Now()
	snap.e2eLatSum = s.e2eLatSum
	snap.e2eLatCnt = s.e2eLatCnt
	snap.busPerMC = make([]uint64, len(s.mcs))
	for i, mc := range s.mcs {
		snap.busPerMC[i] = mc.Stats.BusBusyCycles
	}
	for _, mc := range s.mcs {
		for c := range snap.bytes {
			snap.bytes[c] += mc.Stats.BytesByClass[c]
		}
		snap.busBusy += mc.Stats.BusBusyCycles
		snap.pending += mc.Stats.PendingCycles
		snap.reads += mc.Stats.ReadsServed
		snap.writes += mc.Stats.WritesServed
		snap.readLat += mc.Stats.ReadLatencySum
		snap.rowHits += mc.Stats.RowHits
	}
	return snap
}

// Metrics computes the current window's summary.
func (s *System) Metrics() Metrics {
	cur := s.snapshotNow()
	var m Metrics
	m.Cycles = cur.cycle - s.base.cycle
	for c := range m.BytesByClass {
		m.BytesByClass[c] = cur.bytes[c] - s.base.bytes[c]
	}
	m.Reads = cur.reads - s.base.reads
	m.Writes = cur.writes - s.base.writes
	m.RowHits = cur.rowHits - s.base.rowHits
	if m.Reads > 0 {
		m.AvgReadLatency = float64(cur.readLat-s.base.readLat) / float64(m.Reads)
	}
	busy := cur.busBusy - s.base.busBusy
	pending := cur.pending - s.base.pending
	if m.Cycles > 0 {
		m.BusUtilization = float64(busy) / float64(m.Cycles*uint64(len(s.mcs)))
	}
	if pending > 0 {
		m.Efficiency = float64(busy) / float64(pending)
	}
	return m
}

// ClassTailLatency returns the p-th percentile (0 < p <= 100) of a
// class's end-to-end L2-miss latency in cycles over the current
// measurement window, with the histogram's ~6% relative resolution.
func (s *System) ClassTailLatency(class mem.ClassID, p float64) uint64 {
	// The window's distribution is the merge of the class's tile
	// histograms minus the baseline captured at ResetStats. h must be
	// built by Merge, never copied from a tile's histogram: a copied Hist
	// shares its buckets, and Sub would rewrite the tile's samples.
	var h stats.Hist
	for _, t := range s.tiles {
		if t != nil && t.class == class {
			h.Merge(&t.lat)
		}
	}
	h.Sub(&s.baseLat[class])
	return h.Percentile(p)
}

// TotalBytes returns all DRAM bytes moved in the window.
func (m Metrics) TotalBytes() uint64 {
	var t uint64
	for _, b := range m.BytesByClass {
		t += b
	}
	return t
}

// ShareOf returns a class's fraction of window DRAM traffic.
func (m Metrics) ShareOf(class mem.ClassID) float64 {
	t := m.TotalBytes()
	if t == 0 {
		return 0
	}
	return float64(m.BytesByClass[class]) / float64(t)
}

// BytesPerCycle returns a class's window bandwidth.
func (m Metrics) BytesPerCycle(class mem.ClassID) float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.BytesByClass[class]) / float64(m.Cycles)
}

// FaultReport summarizes fault injection and the governors' degraded-
// signal behavior over the system lifetime.
type FaultReport struct {
	// Active reports whether a fault plan is configured.
	Active bool

	// Injected counts injected faults by kind (nil when inactive).
	Injected *stats.Counters

	// StaleIntervals / Decays / ResyncEpochs sum the per-governor
	// degradation counters: expired watchdog deadlines, decay steps
	// toward the fallback multiplier, and epochs spent resynchronizing.
	StaleIntervals uint64
	Decays         uint64
	ResyncEpochs   uint64

	// DivergenceMax is the worst observed spread (max M − min M) across
	// governors at an epoch boundary; zero means lockstep never broke.
	DivergenceMax uint64
	// DivergedEpochs counts epoch boundaries where governors disagreed.
	DivergedEpochs uint64
	// ReconvergeEpochs is the length, in epochs, of the most recently
	// completed divergence episode (detection to restored lockstep).
	ReconvergeEpochs uint64
	// Diverged reports whether governors disagree right now.
	Diverged bool
}

// FaultReport collects the current fault/degradation summary.
func (s *System) FaultReport() FaultReport {
	r := FaultReport{
		Active:           s.faults != nil,
		DivergenceMax:    s.divergeMax,
		DivergedEpochs:   s.divergeEpochs,
		ReconvergeEpochs: s.reconvLast,
		Diverged:         s.divergeSince != 0,
	}
	if s.faults != nil {
		r.Injected = s.faults.Counters()
	}
	for _, t := range s.tiles {
		if t == nil {
			continue
		}
		g, ok := t.src.(*pabst.Governor)
		if !ok {
			continue
		}
		d := g.Degrade()
		r.StaleIntervals += d.StaleIntervals
		r.Decays += d.Decays
		r.ResyncEpochs += d.ResyncEpochs
	}
	return r
}
