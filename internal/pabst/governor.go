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

// DegradeStats counts a governor's degraded-signal events for
// observability: how often its watchdog expired, how many decay steps it
// took toward the fallback rate, and how many epochs it spent
// resynchronizing after a heal.
type DegradeStats struct {
	StaleIntervals uint64 // watchdog deadlines that expired with no heartbeat
	Decays         uint64 // fallback decay steps taken
	ResyncEpochs   uint64 // heartbeats consumed in resynchronization mode
}

// Governor is the per-tile source regulator: a system monitor, the rate
// generator, and a pacer. Tiles running the same class each have their
// own governor (and pacer), matching the hardware organization.
type Governor struct {
	params  Params
	reg     *qos.Registry
	class   mem.ClassID
	monitor *SystemMonitor
	pacer   *Pacer

	// Demand feedback (the Section V-B heterogeneous-allocation
	// extension): misses this tile generated during the current epoch.
	demand uint64

	// Degraded-signal state (zero-valued and inert unless the watchdog
	// or resynchronization is armed in params).
	lastBeat       uint64 // delivery cycle of the most recent heartbeat
	staleIntervals int    // consecutive expired watchdog deadlines
	resyncLeft     int    // remaining bounded-resync epochs
	degrade        DegradeStats
}

// NewGovernor builds a governor for the tile running class on behalf of
// registry reg.
func NewGovernor(params Params, reg *qos.Registry, class mem.ClassID) *Governor {
	return &Governor{
		params:  params,
		reg:     reg,
		class:   class,
		monitor: NewSystemMonitor(params),
		pacer:   NewPacer(params.BurstCredit),
	}
}

// Class returns the QoS class this governor throttles.
func (g *Governor) Class() mem.ClassID { return g.class }

// Monitor exposes the monitor for inspection (tests, tracing).
func (g *Governor) Monitor() *SystemMonitor { return g.monitor }

// Pacer exposes the pacer used by the L2 miss path.
func (g *Governor) Pacer() *Pacer { return g.pacer }

// Degrade returns the degraded-signal event counts.
func (g *Governor) Degrade() DegradeStats { return g.degrade }

// ProbeState implements regulate.Probe: the monitor's M and δM plus the
// installed pacing period, for epoch-boundary trace events.
func (g *Governor) ProbeState() (m, dm, period uint64, multi bool) {
	return g.monitor.M(), g.monitor.DM(), g.pacer.Period(), false
}

// Epoch consumes the epoch heartbeat with the wired-OR saturation signal
// and installs the new goal period into the pacer. The per-controller
// vector is ignored: the baseline governor regulates against global
// saturation.
//
// When the heartbeat carries resynchronization gossip (monitors diverged
// during a degraded period), the governor converges its multiplier
// toward the gossiped maximum within the configured epoch bound instead
// of taking a normal SAT step.
//
// With HeterogeneousThreads enabled, the class allocation is split by
// each thread's reported miss demand instead of evenly: a tile that
// generated fraction d/D of the class's misses last epoch gets fraction
// d/D of the class rate (period scaled by D/d), preserving the class
// total while letting busy threads use what idle threads leave.
func (g *Governor) Epoch(hb regulate.Heartbeat) {
	g.lastBeat = hb.Now
	g.staleIntervals = 0

	if hb.Resync && g.params.ResyncEpochs > 0 {
		if g.resyncLeft == 0 {
			g.resyncLeft = g.params.ResyncEpochs
		}
		m := g.monitor.ResyncStep(hb.GossipM, g.resyncLeft)
		g.resyncLeft--
		g.degrade.ResyncEpochs++
		g.demand = 0 // skip the heterogeneous split while resyncing
		g.pacer.SetPeriod(RatePeriod(m, g.reg.Stride(g.class), g.reg.Threads(g.class), g.params.ScaleF))
		return
	}
	g.resyncLeft = 0

	m := g.monitor.Epoch(hb.SatAny)
	stride := g.reg.Stride(g.class)

	if g.params.HeterogeneousThreads {
		d := g.demand
		g.demand = 0
		g.reg.ReportDemand(g.class, d)
		if total := g.reg.Demand(g.class); total > 0 {
			classPeriod := satMul(m, stride) / g.params.ScaleF
			if d == 0 {
				// No demand: park far below one request per epoch but
				// leave room to ramp when demand returns.
				g.pacer.SetPeriod(satMul(classPeriod, total))
				return
			}
			g.pacer.SetPeriod(satMul(classPeriod, total) / d)
			return
		}
		// First epoch (no totals yet): fall through to even split.
	}

	period := RatePeriod(m, stride, g.reg.Threads(g.class), g.params.ScaleF)
	g.pacer.SetPeriod(period)
}

// WatchdogTick implements regulate.Watchdog: called every cycle by the
// tile, it notices when the heartbeat has gone silent for longer than
// the configured deadline. The governor first holds its multiplier with
// the gain reset (anti-windup) for WatchdogHold intervals, then decays
// toward the conservative fallback multiplier — a governor with no
// feedback must not keep the aggressive rate it negotiated under
// conditions that no longer hold, and must not bank gain that would fire
// an overshoot when the signal returns.
func (g *Governor) WatchdogTick(now uint64) {
	deadline := g.params.WatchdogCycles
	if deadline == 0 || now-g.lastBeat < deadline {
		return
	}
	// One expired deadline interval; measure the next from here (a real
	// heartbeat overwrites lastBeat and clears the stale count).
	g.lastBeat = now
	g.staleIntervals++
	g.degrade.StaleIntervals++
	if g.staleIntervals <= g.params.WatchdogHold {
		g.monitor.Hold()
		return
	}
	fallback := g.params.FallbackM
	if fallback == 0 {
		fallback = g.params.MInit
	}
	m := g.monitor.Decay(fallback)
	g.degrade.Decays++
	g.pacer.SetPeriod(RatePeriod(m, g.reg.Stride(g.class), g.reg.Threads(g.class), g.params.ScaleF))
}

// WatchdogNextAt implements regulate.Watchdog: the armed deadline is
// one WatchdogCycles interval past the latest heartbeat (or the latest
// expiry, which resets the measurement base).
func (g *Governor) WatchdogNextAt() uint64 { return g.lastBeat + g.params.WatchdogCycles }

// NextIssueAt implements regulate.Source: the single global
// pacer's grant time, regardless of channel.
func (g *Governor) NextIssueAt(from uint64, mc int) uint64 { return g.pacer.NextAllowedAt(from) }

// CanIssue reports whether this tile's L2 may inject a miss now. The
// target controller is irrelevant to the global governor.
func (g *Governor) CanIssue(now uint64, mc int) bool { return g.pacer.CanIssue(now) }

// OnIssue charges the pacer for a miss entering the SoC network.
func (g *Governor) OnIssue(now uint64, mc int) { g.pacer.OnIssue(now) }

// OnDemand counts a generated miss toward this epoch's demand report.
func (g *Governor) OnDemand(now uint64) { g.demand++ }

// OnResponse applies the cache-filtering corrections carried on a
// response: refund if the shared cache serviced the request, an extra
// charge if the fill generated a writeback.
func (g *Governor) OnResponse(pkt *mem.Packet, now uint64) {
	if pkt.L3Hit {
		g.pacer.OnL3Hit()
	}
	if pkt.WBGen {
		g.pacer.OnWriteback(now)
	}
}
