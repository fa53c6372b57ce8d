package soc

import (
	"pabst/internal/mem"
	"pabst/internal/pabst"
	"pabst/internal/regulate"
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

// ClassMissLatency returns the mean end-to-end L2-miss latency of a
// class in cycles (network injection to response arrival, including L3
// hits), over the current measurement window.
func (s *System) ClassMissLatency(class mem.ClassID) float64 {
	cnt := s.e2eLatCnt[class] - s.base.e2eLatCnt[class]
	if cnt == 0 {
		return 0
	}
	return float64(s.e2eLatSum[class]-s.base.e2eLatSum[class]) / float64(cnt)
}

// ClassLatencyHist returns the class's end-to-end L2-miss latency
// distribution over the current measurement window: the merge of the
// class's tile histograms minus the baseline captured at ResetStats.
func (s *System) ClassLatencyHist(class mem.ClassID) stats.Hist {
	var h stats.Hist
	for _, t := range s.tiles {
		if t != nil && t.class == class {
			h.Merge(&t.lat)
		}
	}
	h.Sub(&s.baseLat[class])
	return h
}

// ClassTailLatency returns the p-th percentile (0 < p <= 100) of a
// class's end-to-end L2-miss latency in cycles over the current
// measurement window, with the histogram's ~6% relative resolution.
func (s *System) ClassTailLatency(class mem.ClassID, p float64) uint64 {
	h := s.ClassLatencyHist(class)
	return h.Percentile(p)
}

// ClassMCReadLatency returns the mean front-end queueing + service
// latency at the memory controllers for a class, over the system
// lifetime.
func (s *System) ClassMCReadLatency(class mem.ClassID) float64 {
	var sum, cnt uint64
	for _, mc := range s.mcs {
		sum += mc.Stats.ReadLatencyByClass[class]
		cnt += mc.Stats.ReadsByClass[class]
	}
	if cnt == 0 {
		return 0
	}
	return float64(sum) / float64(cnt)
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

// ClassIPC averages core IPC over the tiles running class.
func (s *System) ClassIPC(class mem.ClassID) float64 {
	var sum float64
	n := 0
	for _, t := range s.tiles {
		if t != nil && t.class == class {
			sum += t.core.IPC()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TileIPCs returns the IPC of every tile running class, in tile order.
func (s *System) TileIPCs(class mem.ClassID) []float64 {
	var out []float64
	for _, t := range s.tiles {
		if t != nil && t.class == class {
			out = append(out, t.core.IPC())
		}
	}
	return out
}

// Tiles returns the attached tiles (nil entries for idle tiles).
func (s *System) Tiles() []*Tile { return s.tiles }

// GovernorState reports the internal regulator state of a tile for
// tracing: the throttle multiplier M, the current step δM, and the
// installed pacing period. ok is false when the tile is idle or its
// source has no registers (pass-through, static): it is true for exactly
// the sources that implement regulate.Probe. Per-controller governors
// report channel 0 as the representative.
func (s *System) GovernorState(tile int) (m, dm, period uint64, ok bool) {
	if tile < 0 || tile >= len(s.tiles) || s.tiles[tile] == nil {
		return 0, 0, 0, false
	}
	p, ok := s.tiles[tile].src.(regulate.Probe)
	if !ok {
		return 0, 0, 0, false
	}
	m, dm, period, _ = p.ProbeState()
	return m, dm, period, true
}

// L3OccupancyOf returns the number of shared-cache bytes a class
// currently holds — the LLC occupancy monitor existing QoS architectures
// expose (Section II-B).
func (s *System) L3OccupancyOf(class mem.ClassID) uint64 {
	return s.l3Occupancy()[class]
}

// l3Occupancy returns every class's shared-cache bytes from one pass
// over each slice; Snapshot fills all of its classes from a single call.
func (s *System) l3Occupancy() (bytes [mem.MaxClasses]uint64) {
	var occ [mem.MaxClasses]int
	for _, sl := range s.slices {
		sl.cache.OccupancyInto(&occ)
		for c, n := range occ {
			bytes[c] += uint64(n) * mem.LineSize
		}
	}
	return bytes
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
		var d pabst.DegradeStats
		switch g := t.src.(type) {
		case *pabst.Governor:
			d = g.Degrade()
		case *pabst.MultiGovernor:
			d = g.Degrade()
		default:
			continue
		}
		r.StaleIntervals += d.StaleIntervals
		r.Decays += d.Decays
		r.ResyncEpochs += d.ResyncEpochs
	}
	return r
}

// GovernorMs returns the current throttle multiplier of every attached
// adaptive governor, in tile order — the raw material for divergence
// assertions in tests and tracing.
func (s *System) GovernorMs() []uint64 {
	var out []uint64
	for _, t := range s.tiles {
		if t == nil {
			continue
		}
		if g, ok := t.src.(*pabst.Governor); ok {
			out = append(out, g.Monitor().M())
		}
	}
	return out
}

// MCStatsSum aggregates controller stats for inspection.
func (s *System) MCStatsSum() (reads, writes, queuedReads int) {
	for _, mc := range s.mcs {
		reads += int(mc.Stats.ReadsServed)
		writes += int(mc.Stats.WritesServed)
		queuedReads += mc.QueuedReads()
	}
	return
}
