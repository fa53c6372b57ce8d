package soc

import (
	"pabst/internal/mem"
	"pabst/internal/regulate"
)

// Snapshot is a coherent point-in-time view of the system's observable
// state, and the only read-out of it besides the window summary
// (Metrics) and the tail percentiles (ClassTailLatency). It is a plain
// value — safe to retain, compare, and serialize after the system moves
// on.
type Snapshot struct {
	// Cycle is the capture time; Epochs counts heartbeats fired; Sat is
	// the most recent wired-OR saturation signal.
	Cycle  uint64
	Epochs uint64
	Sat    bool

	// SkippedCycles counts cycles the event kernel jumped over because
	// no component had work, since the system was built or restored (a
	// scheduler counter, like EventClasses: checkpoints do not carry it).
	SkippedCycles uint64

	// LateWakes counts event-kernel wakes that targeted an
	// already-dispatched cycle — violations of the forward-only
	// same-cycle wake contract. Always zero for this system's component
	// graph (and trivially zero on the reference loop); a nonzero value
	// means a wake edge was added that can reorder work.
	LateWakes uint64

	// EventClasses reports per-dispatch-class scheduler load under the
	// event kernel; nil on the reference loop. Kernel-diagnostic only:
	// exclude it (and SkippedCycles/LateWakes) from cross-kernel
	// identity comparisons, which must cover simulated outcomes, not
	// scheduler internals.
	EventClasses []EventClassSnapshot

	// Window summarizes the current measurement window.
	Window Metrics

	// Classes, Tiles, and MCs are ordered by class ID, tile index, and
	// channel index respectively. Tiles holds only attached tiles.
	Classes []ClassSnapshot
	Tiles   []TileSnapshot
	MCs     []MCSnapshot
}

// EventClassSnapshot is one event-kernel dispatch class's scheduler
// load: Visited counts cumulative component dispatches, so
// Visited/(Cycle×Registered) is the class's dispatch occupancy — the
// fraction of component-cycles the event kernel actually paid for (the
// reference loop's is 1.0 by construction).
type EventClassSnapshot struct {
	Class      string
	Registered int
	Visited    uint64
}

// ClassSnapshot is one QoS class's allocation and delivery state.
type ClassSnapshot struct {
	ID     mem.ClassID
	Name   string
	Weight uint64
	// EntitledShare is the weight-proportional share (Eq. 1);
	// Share is the fraction of window DRAM traffic actually delivered.
	EntitledShare float64
	Share         float64

	Bytes         uint64 // window DRAM bytes
	BytesPerCycle float64

	IPC      float64   // mean over the class's tiles
	TileIPCs []float64 // per tile running the class, in tile order

	// MissLatency is the mean end-to-end L2-miss latency (window);
	// MCReadLatency the mean controller front-end latency (lifetime).
	MissLatency   float64
	MCReadLatency float64

	// L3OccupancyBytes is the shared-cache footprint held right now.
	L3OccupancyBytes uint64
}

// TileSnapshot is one attached tile's state.
type TileSnapshot struct {
	Tile     int
	Class    mem.ClassID
	IPC      float64
	Governor GovernorSnapshot
}

// GovernorSnapshot is a tile regulator's registers. OK is false for
// sources without an adaptive governor (pass-through, static);
// Multi marks per-controller regulators, which report channel 0.
type GovernorSnapshot struct {
	OK            bool
	Multi         bool
	M, DM, Period uint64
}

// MCSnapshot is one memory channel's service state.
type MCSnapshot struct {
	MC          int
	Utilization float64 // data-bus utilization over the window
	QueuedReads int     // current front-end queue depth

	// Lifetime service counters.
	Reads, Writes, RowHits uint64
	PriorityInversions     uint64
}

// Snapshot captures the system's observable state in one coherent view.
func (s *System) Snapshot() Snapshot {
	snap := Snapshot{
		Cycle:         s.kernel.Now(),
		Epochs:        s.epochs,
		Sat:           s.satLast,
		SkippedCycles: s.kernel.Skipped(),
		LateWakes:     s.kernel.LateWakes(),
		Window:        s.Metrics(),
	}
	if reg, vis := s.kernel.EventClassStats(); reg != nil {
		for c := range reg {
			snap.EventClasses = append(snap.EventClasses, EventClassSnapshot{
				Class:      evClassNames[c],
				Registered: reg[c],
				Visited:    vis[c],
			})
		}
	}
	for id, t := range s.tiles {
		if t == nil {
			continue
		}
		ts := TileSnapshot{Tile: id, Class: t.class, IPC: t.core.IPC()}
		if p, ok := t.src.(regulate.Probe); ok {
			ts.Governor.OK = true
			ts.Governor.M, ts.Governor.DM, ts.Governor.Period, ts.Governor.Multi = p.ProbeState()
		}
		snap.Tiles = append(snap.Tiles, ts)
	}
	// One pass over each L3 slice fills every class's occupancy.
	var l3 [mem.MaxClasses]uint64
	var occ [mem.MaxClasses]int
	for _, sl := range s.slices {
		sl.cache.OccupancyInto(&occ)
		for c, n := range occ {
			l3[c] += uint64(n) * mem.LineSize
		}
	}
	for _, c := range s.reg.Classes() {
		cs := ClassSnapshot{
			ID:               c.ID,
			Name:             c.Name,
			Weight:           s.reg.Weight(c.ID),
			EntitledShare:    s.reg.Share(c.ID),
			Share:            snap.Window.ShareOf(c.ID),
			Bytes:            snap.Window.BytesByClass[c.ID],
			BytesPerCycle:    snap.Window.BytesPerCycle(c.ID),
			L3OccupancyBytes: l3[c.ID],
		}
		var ipcSum float64
		for i := range snap.Tiles {
			if snap.Tiles[i].Class == c.ID {
				cs.TileIPCs = append(cs.TileIPCs, snap.Tiles[i].IPC)
				ipcSum += snap.Tiles[i].IPC
			}
		}
		if n := len(cs.TileIPCs); n > 0 {
			cs.IPC = ipcSum / float64(n)
		}
		if cnt := s.e2eLatCnt[c.ID] - s.base.e2eLatCnt[c.ID]; cnt > 0 {
			cs.MissLatency = float64(s.e2eLatSum[c.ID]-s.base.e2eLatSum[c.ID]) / float64(cnt)
		}
		var latSum, reads uint64
		for _, mc := range s.mcs {
			latSum += mc.Stats.ReadLatencyByClass[c.ID]
			reads += mc.Stats.ReadsByClass[c.ID]
		}
		if reads > 0 {
			cs.MCReadLatency = float64(latSum) / float64(reads)
		}
		snap.Classes = append(snap.Classes, cs)
	}
	for i, mc := range s.mcs {
		ms := MCSnapshot{
			MC:                 i,
			QueuedReads:        mc.QueuedReads(),
			Reads:              mc.Stats.ReadsServed,
			Writes:             mc.Stats.WritesServed,
			RowHits:            mc.Stats.RowHits,
			PriorityInversions: mc.Stats.PriorityInversions,
		}
		if snap.Window.Cycles > 0 {
			busy := mc.Stats.BusBusyCycles
			if i < len(s.base.busPerMC) { // nil until the first ResetStats
				busy -= s.base.busPerMC[i]
			}
			ms.Utilization = float64(busy) / float64(snap.Window.Cycles)
		}
		snap.MCs = append(snap.MCs, ms)
	}
	return snap
}

// Class returns the snapshot of the given class, or nil if the class is
// unknown (unlike live registry lookups, a stale ID does not panic).
func (sn *Snapshot) Class(id mem.ClassID) *ClassSnapshot {
	for i := range sn.Classes {
		if sn.Classes[i].ID == id {
			return &sn.Classes[i]
		}
	}
	return nil
}

// Tile returns the snapshot of the given tile, or nil when the tile is
// idle or out of range.
func (sn *Snapshot) Tile(tile int) *TileSnapshot {
	for i := range sn.Tiles {
		if sn.Tiles[i].Tile == tile {
			return &sn.Tiles[i]
		}
	}
	return nil
}

// GovernorMs returns the throttle multiplier of every plain (global-SAT)
// governor in tile order — the lockstep/divergence assertion input.
// Per-controller governors are excluded: their channels may legitimately
// hold different multipliers.
func (sn *Snapshot) GovernorMs() []uint64 {
	var out []uint64
	for i := range sn.Tiles {
		if g := sn.Tiles[i].Governor; g.OK && !g.Multi {
			out = append(out, g.M)
		}
	}
	return out
}
