package pabst

import (
	"math"
	"math/bits"

	"pabst/internal/mem"
	"pabst/internal/qos"
	"pabst/internal/regulate"
)

// RatePeriod computes the goal request period for one source CPU from the
// system multiplier, the class stride, and the class's active thread
// count — Equations 3 and 4 of the paper:
//
//	class_period  = M × stride / F
//	source_period = class_period × threads
//
// The multiplication happens before the divide so the F scale factor
// provides fractional-rate resolution. Because every term except M and F
// is per-class and every governor computes the same M, the resulting
// rates are always in exact inverse-stride (= weight) proportion, which
// is the Eq. 5 invariant.
//
// The products saturate instead of wrapping: a 64-bit overflow must read
// as "maximally throttled", never as a tiny period that silently
// un-throttles the class.
func RatePeriod(m, stride uint64, threads int, scaleF uint64) uint64 {
	if threads <= 0 {
		threads = 1
	}
	return satMul(satMul(m, stride), uint64(threads)) / scaleF
}

// satMul multiplies with saturation at the uint64 ceiling.
func satMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 {
		return math.MaxUint64
	}
	return lo
}

// What a governor does when its heartbeat goes silent. These are not
// knobs: internal/soc arms the watchdog and resync on exactly the
// machines with a fault plan, and every one of them uses these values.
const (
	// WatchdogEpochs is the silence deadline, in epochs: past any lag a
	// plan may add to a heartbeat (under one epoch).
	WatchdogEpochs = 2
	// HoldDeadlines is how many expired deadlines hold M (gain reset)
	// before it decays toward MInit.
	HoldDeadlines = 2
	// ResyncWithin bounds re-convergence after a heal, in epochs.
	ResyncWithin = 8
)

// DegradeStats counts a governor's degraded-signal events for
// observability: how often its watchdog expired, how many decay steps it
// took toward the fallback rate, and how many epochs it spent
// resynchronizing after a heal.
type DegradeStats struct {
	StaleIntervals uint64 // watchdog deadlines that expired with no heartbeat
	Decays         uint64 // fallback decay steps taken
	ResyncEpochs   uint64 // heartbeats consumed in resynchronization mode
}

// Governor is the per-tile source regulator: the rate generator over one
// or more lanes, each a system monitor and the pacer it drives. Tiles
// running the same class each have their own governor, matching the
// hardware organization.
//
// The default is one lane fed by the global wired-OR SAT (Section III-B).
// The Section III-C1 variation is one lane per memory controller, each
// fed by that controller's own saturation bit and pacing only the misses
// bound for it: when traffic is unevenly distributed across channels the
// global OR forces every channel down to the hottest channel's rate,
// while per-controller lanes throttle only the traffic headed to the
// saturated channel. Eq. 5 then holds per controller: each lane sees
// identical inputs across tiles, so per-channel target rates remain in
// stride ratio for the traffic of that channel.
type Governor struct {
	params Params
	reg    *qos.Registry
	class  mem.ClassID
	lanes  []lane

	// Demand feedback (the Section V-B heterogeneous-allocation
	// extension): misses this tile generated during the current epoch.
	// Counted only when HeterogeneousThreads will read it.
	demand uint64

	// Degraded-signal state (zero-valued and inert unless the tile calls
	// WatchdogTick or a heartbeat carries Resync). One heartbeat feeds
	// every lane, so there is one of each per governor.
	lastBeat       uint64 // delivery cycle of the most recent heartbeat
	staleIntervals int    // consecutive expired watchdog deadlines
	resyncLeft     int    // remaining bounded-resync epochs
	degrade        DegradeStats
}

// lane is one SAT-feedback loop: the monitor that turns a saturation bit
// into a multiplier and the pacer that enforces the resulting period.
type lane struct {
	monitor *SystemMonitor
	pacer   *Pacer
}

// NewGovernor builds the global governor (one lane, wired-OR SAT) for
// the tile running class on behalf of registry reg.
func NewGovernor(params Params, reg *qos.Registry, class mem.ClassID) *Governor {
	return NewLaneGovernor(params, reg, class, 1)
}

// NewLaneGovernor builds a governor with one lane per memory controller;
// lanes is the channel count. One lane is the global governor.
func NewLaneGovernor(params Params, reg *qos.Registry, class mem.ClassID, lanes int) *Governor {
	if lanes <= 0 {
		panic("pabst: a governor needs at least one lane")
	}
	g := &Governor{params: params, reg: reg, class: class, lanes: make([]lane, lanes)}
	for i := range g.lanes {
		g.lanes[i] = lane{NewSystemMonitor(params), NewPacer(params.BurstCredit)}
	}
	return g
}

// Class returns the QoS class this governor throttles.
func (g *Governor) Class() mem.ClassID { return g.class }

// Lanes returns the lane count: 1 for the global governor, the channel
// count for per-controller regulation.
func (g *Governor) Lanes() int { return len(g.lanes) }

// Monitor exposes lane i's monitor for inspection (tests, tracing).
func (g *Governor) Monitor(i int) *SystemMonitor { return g.lanes[i].monitor }

// Pacer exposes lane i's pacer.
func (g *Governor) Pacer(i int) *Pacer { return g.lanes[i].pacer }

// Degrade returns the degraded-signal event counts.
func (g *Governor) Degrade() DegradeStats { return g.degrade }

// ProbeState implements regulate.Probe: lane 0's M and δM plus its
// installed pacing period, for epoch-boundary trace events. multi flags
// the approximation when there are more lanes than the one reported.
func (g *Governor) ProbeState() (m, dm, period uint64, multi bool) {
	l := g.lanes[0]
	return l.monitor.M(), l.monitor.DM(), l.pacer.Period(), len(g.lanes) > 1
}

// period is the rate generator: the pacing period one lane installs at
// multiplier m. With no demand total it is the even split of Eq. 3 and 4;
// with one (HeterogeneousThreads) the class allocation is split by each
// thread's reported miss demand instead: a tile that generated fraction
// d/D of the class's misses last epoch gets fraction d/D of the class
// rate (period scaled by D/d), preserving the class total while letting
// busy threads use what idle threads leave. A single channel carries
// ~1/lanes of the class's traffic, so a lane's inter-request period is
// lanes times the whole-class source period at the same rate — an evenly
// spread class is paced identically at any lane count.
func (g *Governor) period(m, demand, total uint64) uint64 {
	stride := g.reg.Stride(g.class)
	var p uint64
	if total > 0 {
		// No demand parks the tile far below one request per epoch but
		// leaves room to ramp when demand returns.
		p = satMul(satMul(m, stride)/g.params.ScaleF, total)
		if demand > 0 {
			p /= demand
		}
	} else {
		p = RatePeriod(m, stride, g.reg.Threads(g.class), g.params.ScaleF)
	}
	return satMul(p, uint64(len(g.lanes)))
}

// Epoch consumes the epoch heartbeat and installs the new goal period
// into every lane's pacer. The global governor steps on the wired-OR
// saturation signal and ignores the per-controller vector; each
// per-controller lane steps on its own controller's bit (a vector too
// short to name it falls back to the wired-OR).
//
// When the heartbeat carries resynchronization gossip (monitors diverged
// during a degraded period), the governor converges its multiplier
// toward the gossiped maximum within ResyncWithin epochs instead of
// taking a normal SAT step, and skips the heterogeneous split.
func (g *Governor) Epoch(hb regulate.Heartbeat) {
	g.lastBeat = hb.Now
	g.staleIntervals = 0

	if hb.Resync {
		if g.resyncLeft == 0 {
			g.resyncLeft = ResyncWithin
		}
		for _, l := range g.lanes {
			l.pacer.SetPeriod(g.period(l.monitor.ResyncStep(hb.GossipM, g.resyncLeft), 0, 0))
		}
		g.resyncLeft--
		g.degrade.ResyncEpochs++
		g.demand = 0
		return
	}
	g.resyncLeft = 0

	// The first hetero epoch has no totals yet and splits evenly.
	var d, total uint64
	if g.params.HeterogeneousThreads {
		d, g.demand = g.demand, 0
		g.reg.ReportDemand(g.class, d)
		total = g.reg.Demand(g.class)
	}
	for i, l := range g.lanes {
		sat := hb.SatAny
		if len(g.lanes) > 1 && i < len(hb.SatPerMC) {
			sat = hb.SatPerMC[i]
		}
		l.pacer.SetPeriod(g.period(l.monitor.Epoch(sat), d, total))
	}
}

// WatchdogTick implements regulate.Watchdog: called every cycle by the
// tile, it notices when the heartbeat has gone silent for WatchdogEpochs
// epochs. The governor first holds every lane's multiplier with the gain
// reset (anti-windup) for HoldDeadlines intervals, then decays toward
// MInit — a governor with no feedback must not keep the aggressive rate
// it negotiated under conditions that no longer hold, and must not bank
// gain that would fire an overshoot when the signal returns.
func (g *Governor) WatchdogTick(now uint64) {
	if now-g.lastBeat < g.deadline() {
		return
	}
	// One expired deadline interval; measure the next from here (a real
	// heartbeat overwrites lastBeat and clears the stale count).
	g.lastBeat = now
	g.staleIntervals++
	g.degrade.StaleIntervals++
	if g.staleIntervals <= HoldDeadlines {
		for _, l := range g.lanes {
			l.monitor.Hold()
		}
		return
	}
	g.degrade.Decays++
	for _, l := range g.lanes {
		l.pacer.SetPeriod(g.period(l.monitor.Decay(MInit), 0, 0))
	}
}

// WatchdogNextAt implements regulate.Watchdog: the deadline is one
// watchdog interval past the latest heartbeat (or the latest expiry,
// which resets the measurement base).
func (g *Governor) WatchdogNextAt() uint64 { return g.lastBeat + g.deadline() }

// deadline is the watchdog interval in cycles.
func (g *Governor) deadline() uint64 { return WatchdogEpochs * g.params.EpochCycles }

// pacerFor returns the pacer regulating misses bound for controller mc:
// the global lane whatever the channel, or that controller's own.
func (g *Governor) pacerFor(mc int) *Pacer {
	if len(g.lanes) == 1 {
		return g.lanes[0].pacer
	}
	return g.lanes[mc].pacer
}

// NextIssueAt implements regulate.Source: the grant time of the pacer
// regulating channel mc.
func (g *Governor) NextIssueAt(from uint64, mc int) uint64 {
	return g.pacerFor(mc).NextAllowedAt(from)
}

// CanIssue reports whether this tile's L2 may inject a miss bound for
// controller mc now.
func (g *Governor) CanIssue(now uint64, mc int) bool { return g.pacerFor(mc).CanIssue(now) }

// OnIssue charges the pacer for a miss entering the SoC network.
func (g *Governor) OnIssue(now uint64, mc int) { g.pacerFor(mc).OnIssue(now) }

// OnDemand counts a generated miss toward this epoch's demand report.
func (g *Governor) OnDemand(now uint64) {
	if g.params.HeterogeneousThreads {
		g.demand++
	}
}

// OnResponse applies the response-carried corrections to the pacer of
// the channel that served (or would have served) the request.
func (g *Governor) OnResponse(pkt *mem.Packet, now uint64) {
	g.pacerFor(pkt.MC).OnResponse(pkt, now)
}
