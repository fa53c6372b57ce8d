package soc

import (
	"fmt"

	"pabst/internal/mem"
	"pabst/internal/obs"
	"pabst/internal/regulate"
)

// obsMCPrev holds one controller's counters at the last trace emission,
// so KindDRAM/KindArbiter events carry per-epoch deltas.
type obsMCPrev struct {
	reads, writes, rowHits, busBusy, inversions uint64
}

// obsFaultPrev holds the fault/degradation counters at the last trace
// emission.
type obsFaultPrev struct {
	injected, stale, decays, resync uint64
}

// SetObserver arms epoch-boundary trace emission. Must be called before
// Finalize; a nil observer (the default) keeps the epoch hook probe-free
// apart from one pointer check.
func (s *System) SetObserver(o *obs.Observer) error {
	if s.finalized {
		return fmt.Errorf("soc: SetObserver after Finalize")
	}
	s.obs = o
	return nil
}

// Observer returns the armed observer (nil when tracing is off).
func (s *System) Observer() *obs.Observer { return s.obs }

// emitEpoch publishes this epoch boundary's trace events. Order is
// fixed — epoch summary, governors in tile order, arbiters then DRAM in
// controller order, faults last — and the hook runs with every
// component caught up, so the event stream is bit-identical across
// kernels.
func (s *System) emitEpoch(now uint64, sat bool) {
	if !s.obs.Enabled() {
		return
	}
	if s.obsMC == nil {
		s.obsMC = make([]obsMCPrev, len(s.mcs))
	}

	var e obs.Event
	e = obs.Event{Kind: obs.KindEpoch, Cycle: now, Epoch: s.epochs, Unit: -1, Sat: sat}
	e.NumClasses = len(s.reg.Classes())
	var cum [mem.MaxClasses]uint64
	for _, mc := range s.mcs {
		for c := range cum {
			cum[c] += mc.Stats.BytesByClass[c]
		}
	}
	for c := range cum {
		e.Bytes[c] = cum[c] - s.obsBytes[c]
	}
	s.obsBytes = cum
	s.obs.Emit(&e)

	for id, t := range s.tiles {
		if t == nil {
			continue
		}
		p, ok := t.src.(regulate.Probe)
		if !ok {
			continue
		}
		m, dm, period, _ := p.ProbeState()
		e = obs.Event{Kind: obs.KindGovernor, Cycle: now, Epoch: s.epochs,
			Unit: id, Sat: sat, M: m, DM: dm, Period: period}
		s.obs.Emit(&e)
	}

	for i, mc := range s.mcs {
		// Any arbiter exposing a deadline horizon gets the epoch trace
		// event; arbiter-free targets (plain FCFS) have nothing to report.
		arb, ok := s.arbs[i].(interface{ LastPicked() uint64 })
		if !ok {
			continue
		}
		prev := &s.obsMC[i]
		e = obs.Event{Kind: obs.KindArbiter, Cycle: now, Epoch: s.epochs, Unit: i,
			QueueDepth:   mc.QueuedReads(),
			LastDeadline: arb.LastPicked(),
			Inversions:   mc.Stats.PriorityInversions - prev.inversions}
		prev.inversions = mc.Stats.PriorityInversions
		s.obs.Emit(&e)
	}

	for i, mc := range s.mcs {
		prev := &s.obsMC[i]
		st := &mc.Stats
		e = obs.Event{Kind: obs.KindDRAM, Cycle: now, Epoch: s.epochs, Unit: i,
			Reads:   st.ReadsServed - prev.reads,
			Writes:  st.WritesServed - prev.writes,
			RowHits: st.RowHits - prev.rowHits,
			BusBusy: st.BusBusyCycles - prev.busBusy}
		prev.reads, prev.writes = st.ReadsServed, st.WritesServed
		prev.rowHits, prev.busBusy = st.RowHits, st.BusBusyCycles
		s.obs.Emit(&e)
	}

	if s.faults != nil {
		r := s.FaultReport()
		var injected uint64
		if r.Injected != nil {
			injected = r.Injected.Total()
		}
		e = obs.Event{Kind: obs.KindFault, Cycle: now, Epoch: s.epochs, Unit: -1,
			Injected:   injected - s.obsFault.injected,
			Stale:      r.StaleIntervals - s.obsFault.stale,
			Decays:     r.Decays - s.obsFault.decays,
			Resync:     r.ResyncEpochs - s.obsFault.resync,
			Divergence: s.divergeCurrent}
		s.obsFault = obsFaultPrev{injected: injected, stale: r.StaleIntervals,
			decays: r.Decays, resync: r.ResyncEpochs}
		// Quiet epochs emit nothing: the fault channel is sparse by design.
		if e.Injected != 0 || e.Stale != 0 || e.Decays != 0 || e.Resync != 0 || e.Divergence != 0 {
			s.obs.Emit(&e)
		}
	}

	// Kernel health: the counter is structurally zero, so this channel is
	// silent unless a wake edge has regressed.
	if lw := s.kernel.LateWakes(); lw != 0 {
		e = obs.Event{Kind: obs.KindKernel, Cycle: now, Epoch: s.epochs, Unit: -1, LateWakes: lw}
		s.obs.Emit(&e)
	}
}
