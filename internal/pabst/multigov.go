package pabst

import (
	"pabst/internal/mem"
	"pabst/internal/qos"
	"pabst/internal/regulate"
)

// MultiGovernor is the Section III-C1 alternative source regulator: one
// system monitor and one pacer per memory controller, each fed by that
// controller's own saturation signal instead of the global wired-OR.
//
// When traffic is unevenly distributed across channels, the global OR
// forces every channel down to the hottest channel's rate, leaving the
// cold channels underutilized; per-controller regulation throttles only
// the traffic headed to the saturated channel.
//
// The proportional-share invariant (Eq. 5) holds per controller: each
// controller's monitors see identical inputs across tiles, so per-MC
// target rates remain in stride ratio for the traffic of that channel.
type MultiGovernor struct {
	params Params
	reg    *qos.Registry
	class  mem.ClassID

	monitors []*SystemMonitor
	pacers   []*Pacer

	// mcOf maps a line address to its memory controller, mirroring the
	// system's channel hash so that response-carried corrections refund
	// the right pacer.
	mcOf func(addr mem.Addr) int

	// Degraded-signal state (inert unless the watchdog is armed).
	// Resynchronization gossip is not supported per-MC (the heartbeat
	// carries one scalar M); the watchdog covers total signal loss.
	lastBeat       uint64
	staleIntervals int
	degrade        DegradeStats
}

// NewMultiGovernor builds a per-controller governor for the tile running
// class. numMCs is the channel count and mcOf the system's channel hash.
func NewMultiGovernor(params Params, reg *qos.Registry, class mem.ClassID, numMCs int, mcOf func(mem.Addr) int) *MultiGovernor {
	if numMCs <= 0 || mcOf == nil {
		panic("pabst: MultiGovernor needs channels and a channel hash")
	}
	g := &MultiGovernor{params: params, reg: reg, class: class, mcOf: mcOf}
	for i := 0; i < numMCs; i++ {
		g.monitors = append(g.monitors, NewSystemMonitor(params))
		g.pacers = append(g.pacers, NewPacer(params.BurstCredit))
	}
	return g
}

// Class returns the QoS class this governor throttles.
func (g *MultiGovernor) Class() mem.ClassID { return g.class }

// MonitorOf exposes controller mc's monitor (tests, tracing).
func (g *MultiGovernor) MonitorOf(mc int) *SystemMonitor { return g.monitors[mc] }

// PacerOf exposes controller mc's pacer.
func (g *MultiGovernor) PacerOf(mc int) *Pacer { return g.pacers[mc] }

// Epoch consumes the heartbeat: each controller's monitor sees only its
// own saturation bit. The rate generator divides the per-source period by
// the channel count so that an evenly spread class is paced identically
// to the global governor at the same M.
func (g *MultiGovernor) Epoch(hb regulate.Heartbeat) {
	g.lastBeat = hb.Now
	g.staleIntervals = 0
	stride := g.reg.Stride(g.class)
	threads := g.reg.Threads(g.class)
	for i, mon := range g.monitors {
		sat := hb.SatAny
		if i < len(hb.SatPerMC) {
			sat = hb.SatPerMC[i]
		}
		m := mon.Epoch(sat)
		// A single channel carries ~1/numMCs of the class's traffic, so
		// the per-channel inter-request period is numMCs times the
		// whole-class source period at the same rate.
		period := satMul(RatePeriod(m, stride, threads, g.params.ScaleF), uint64(len(g.monitors)))
		g.pacers[i].SetPeriod(period)
	}
}

// WatchdogTick implements regulate.Watchdog with the same hold-then-decay
// policy as the global governor, applied to every channel's monitor.
func (g *MultiGovernor) WatchdogTick(now uint64) {
	deadline := g.params.WatchdogCycles
	if deadline == 0 || now-g.lastBeat < deadline {
		return
	}
	g.lastBeat = now
	g.staleIntervals++
	g.degrade.StaleIntervals++
	if g.staleIntervals <= g.params.WatchdogHold {
		for _, mon := range g.monitors {
			mon.Hold()
		}
		return
	}
	fallback := g.params.FallbackM
	if fallback == 0 {
		fallback = g.params.MInit
	}
	stride := g.reg.Stride(g.class)
	threads := g.reg.Threads(g.class)
	g.degrade.Decays++
	for i, mon := range g.monitors {
		m := mon.Decay(fallback)
		period := satMul(RatePeriod(m, stride, threads, g.params.ScaleF), uint64(len(g.monitors)))
		g.pacers[i].SetPeriod(period)
	}
}

// Degrade returns the degraded-signal event counts.
func (g *MultiGovernor) Degrade() DegradeStats { return g.degrade }

// ProbeState implements regulate.Probe, reporting the channel-0
// registers as representative (multi = true flags the approximation).
func (g *MultiGovernor) ProbeState() (m, dm, period uint64, multi bool) {
	return g.monitors[0].M(), g.monitors[0].DM(), g.pacers[0].Period(), true
}

// WatchdogNextAt implements regulate.Watchdog: the armed deadline is
// one WatchdogCycles interval past the latest heartbeat.
func (g *MultiGovernor) WatchdogNextAt() uint64 { return g.lastBeat + g.params.WatchdogCycles }

// NextIssueAt implements regulate.Source for the pacer of
// channel mc.
func (g *MultiGovernor) NextIssueAt(from uint64, mc int) uint64 {
	return g.pacers[mc].NextAllowedAt(from)
}

// CanIssue implements regulate.Source for the pacer of channel mc.
func (g *MultiGovernor) CanIssue(now uint64, mc int) bool {
	return g.pacers[mc].CanIssue(now)
}

// OnIssue implements regulate.Source.
func (g *MultiGovernor) OnIssue(now uint64, mc int) {
	g.pacers[mc].OnIssue(now)
}

// OnDemand implements regulate.Source; per-MC governors use even
// intra-class splitting.
func (g *MultiGovernor) OnDemand(now uint64) {}

// OnResponse applies response-carried corrections to the pacer of the
// channel that served (or would have served) the request.
func (g *MultiGovernor) OnResponse(pkt *mem.Packet, now uint64) {
	p := g.pacers[g.mcOf(pkt.Addr)]
	if pkt.L3Hit {
		p.OnL3Hit()
	}
	if pkt.WBGen {
		p.OnWriteback(now)
	}
}
