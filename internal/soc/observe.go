package soc

import (
	"fmt"
	"io"

	"pabst/internal/mem"
	"pabst/internal/obs"
	"pabst/internal/regulate"
)

// obsMCPrev holds one controller's counters at the last trace emission,
// so KindDRAM/KindArbiter events carry per-epoch deltas.
type obsMCPrev struct {
	reads, writes, rowHits, refreshes, busBusy, inversions uint64
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

// MetricRegistry returns the system's gauge registry — the pull-style
// complement to trace events, built at Finalize over live counters in
// soc, dram, regulate, and qos. Nil before Finalize.
func (s *System) MetricRegistry() *obs.Registry { return s.metrics }

// WriteMetrics renders the metric registry as Prometheus-style text.
func (s *System) WriteMetrics(w io.Writer) error { return s.metrics.WriteProm(w) }

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
			Reads:     st.ReadsServed - prev.reads,
			Writes:    st.WritesServed - prev.writes,
			RowHits:   st.RowHits - prev.rowHits,
			Refreshes: st.Refreshes - prev.refreshes,
			BusBusy:   st.BusBusyCycles - prev.busBusy}
		prev.reads, prev.writes = st.ReadsServed, st.WritesServed
		prev.rowHits, prev.refreshes = st.RowHits, st.Refreshes
		prev.busBusy = st.BusBusyCycles
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

// buildMetricRegistry wires the pull-style gauge set over the live
// counters previously reachable only through one-off accessors: system
// progress (soc), per-class traffic shares (qos weights vs delivered
// bytes), per-controller service counters (dram), and per-tile
// regulator registers (regulate).
func (s *System) buildMetricRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Register("pabst_cycle", func() float64 { return float64(s.kernel.Now()) })
	r.Register("pabst_epochs_total", func() float64 { return float64(s.epochs) })
	r.Register("pabst_sat", func() float64 {
		if s.satLast {
			return 1
		}
		return 0
	})
	r.Register("pabst_fastforward_skipped_cycles_total", func() float64 {
		return float64(s.kernel.Skipped())
	})
	r.Register("pabst_event_late_wakes_total", func() float64 {
		return float64(s.kernel.LateWakes())
	})

	// Per-dispatch-class scheduler load (all zero on the reference loop,
	// which has no classes): registered components, cumulative
	// component dispatches, and their ratio against elapsed
	// component-cycles — the dispatch occupancy the event kernel's
	// speedup comes from driving below 1.0.
	for c := 0; c < evNumClasses; c++ {
		c := c
		label := fmt.Sprintf("{class=%q}", evClassName(c))
		r.Register("pabst_event_class_registered"+label, func() float64 {
			reg, _ := s.kernel.EventClassStats()
			if reg == nil {
				return 0
			}
			return float64(reg[c])
		})
		r.Register("pabst_event_class_visited_total"+label, func() float64 {
			_, vis := s.kernel.EventClassStats()
			if vis == nil {
				return 0
			}
			return float64(vis[c])
		})
		r.Register("pabst_event_class_occupancy"+label, func() float64 {
			reg, vis := s.kernel.EventClassStats()
			if reg == nil || reg[c] == 0 || s.kernel.Now() == 0 {
				return 0
			}
			return float64(vis[c]) / (float64(s.kernel.Now()) * float64(reg[c]))
		})
	}

	for _, c := range s.reg.Classes() {
		c := c
		label := fmt.Sprintf("{class=%q}", c.Name)
		r.Register("pabst_class_weight"+label, func() float64 { return float64(s.reg.Weight(c.ID)) })
		r.Register("pabst_class_entitled_share"+label, func() float64 { return s.reg.Share(c.ID) })
		r.Register("pabst_class_bytes_total"+label, func() float64 {
			var b uint64
			for _, mc := range s.mcs {
				b += mc.Stats.BytesByClass[c.ID]
			}
			return float64(b)
		})
		r.Register("pabst_class_share"+label, func() float64 { return s.Metrics().ShareOf(c.ID) })
	}

	for i := range s.mcs {
		mc := s.mcs[i]
		label := fmt.Sprintf("{mc=\"%d\"}", i)
		r.Register("pabst_mc_reads_total"+label, func() float64 { return float64(mc.Stats.ReadsServed) })
		r.Register("pabst_mc_writes_total"+label, func() float64 { return float64(mc.Stats.WritesServed) })
		r.Register("pabst_mc_row_hits_total"+label, func() float64 { return float64(mc.Stats.RowHits) })
		r.Register("pabst_mc_refreshes_total"+label, func() float64 { return float64(mc.Stats.Refreshes) })
		r.Register("pabst_mc_bus_busy_cycles_total"+label, func() float64 { return float64(mc.Stats.BusBusyCycles) })
		r.Register("pabst_mc_queue_depth"+label, func() float64 { return float64(mc.QueuedReads()) })
		r.Register("pabst_mc_priority_inversions_total"+label, func() float64 { return float64(mc.Stats.PriorityInversions) })
	}

	for id := range s.tiles {
		t := s.tiles[id]
		if t == nil {
			continue
		}
		p, ok := t.src.(regulate.Probe)
		if !ok {
			continue
		}
		label := fmt.Sprintf("{tile=\"%d\"}", id)
		r.Register("pabst_governor_m"+label, func() float64 { m, _, _, _ := p.ProbeState(); return float64(m) })
		r.Register("pabst_governor_period"+label, func() float64 { _, _, period, _ := p.ProbeState(); return float64(period) })
	}

	if s.faults != nil {
		r.Register("pabst_faults_injected_total", func() float64 {
			return float64(s.faults.Counters().Total())
		})
		r.Register("pabst_governor_divergence", func() float64 { return float64(s.divergeCurrent) })
	}
	return r
}
