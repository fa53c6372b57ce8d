package qospolicy

import (
	"pabst/internal/ckpt"
	"pabst/internal/mem"
	"pabst/internal/pabst"
	"pabst/internal/qos"
	"pabst/internal/regulate"
)

const (
	// lmsTaps is the adaptive filter order: the predictor regresses the
	// next epoch's miss demand on the last four epochs'.
	lmsTaps = 4
	// lmsShift is the fixed-point precision of the filter weights (Q16).
	lmsShift = 16
	// lmsMu is the normalized step size in Q16 (μ = 0.5): stable for NLMS
	// with 0 < μ < 2 regardless of input power.
	lmsMu = 1 << (lmsShift - 1)
	// lmsWeightCap bounds each weight to ±8.0 in Q16 so a pathological
	// input burst cannot blow the filter up.
	lmsWeightCap = 8 << lmsShift
)

// lmsRegulator is an LMS prediction-based adaptive source regulator
// (LMS-AR): a per-tile normalized least-mean-squares filter predicts the
// tile's miss demand for the coming epoch from its recent history, and
// the pacer budget tracks that prediction plus a 25% headroom margin.
// While memory is uncontended the tile runs at its predicted need, so a
// bursty phase is not throttled by a stale budget; when the saturation
// signal asserts, the budget is clamped to the class's fair share so the
// proportional guarantee still holds under contention.
//
// All filter arithmetic is integer fixed-point (Q16 weights) with a
// fixed evaluation order, keeping the regulator bit-deterministic.
type lmsRegulator struct {
	params pabst.Params
	reg    *qos.Registry
	class  mem.ClassID
	pacer  *pabst.Pacer

	// peakEpochLines is the aggregate line-transfer capacity of one epoch
	// (structural), the base the fair share is cut from.
	peakEpochLines float64

	hist    [lmsTaps]int64 // per-epoch miss demand, most recent first
	weights [lmsTaps]int64 // Q16 filter taps
	demand  uint64         // misses generated this epoch (OnDemand count)
	pred    int64          // demand predicted for the current epoch
	errAbs  uint64         // |prediction error| at the last update
}

func newLMSRegulator(env SourceEnv) regulate.Source {
	l := &lmsRegulator{
		params:         env.Params,
		reg:            env.Reg,
		class:          env.Class,
		pacer:          pabst.NewPacer(env.Params.BurstCredit),
		peakEpochLines: env.PeakBytesPerCycle * float64(env.Params.EpochCycles) / float64(mem.LineSize),
	}
	// Start as a last-value predictor; the error feedback reshapes the
	// taps within a few epochs.
	l.weights[0] = 1 << lmsShift
	return l
}

// fairLines returns this tile's fair-share budget in lines per epoch:
// the class share of epoch capacity split across the class's threads.
func (l *lmsRegulator) fairLines() int64 {
	threads := l.reg.Threads(l.class)
	if threads <= 0 {
		threads = 1
	}
	fair := int64(l.reg.Share(l.class) * l.peakEpochLines / float64(threads))
	if fair < 1 {
		fair = 1
	}
	return fair
}

// Epoch closes the measurement window: update the filter against the
// demand that actually materialized, predict the next epoch, and install
// the matching pacing period.
func (l *lmsRegulator) Epoch(hb regulate.Heartbeat) {
	actual := int64(l.demand)
	l.demand = 0

	// NLMS update against the history the last prediction was made from:
	// Δw_i = μ·e·x_i / (Σx² + 1), μ and w in Q16.
	e := actual - l.pred
	if e < 0 {
		l.errAbs = uint64(-e)
	} else {
		l.errAbs = uint64(e)
	}
	var power int64 = 1
	for _, x := range l.hist {
		power += x * x
	}
	for i, x := range l.hist {
		w := l.weights[i] + lmsMu*e*x/power
		if w > lmsWeightCap {
			w = lmsWeightCap
		} else if w < -lmsWeightCap {
			w = -lmsWeightCap
		}
		l.weights[i] = w
	}

	// Shift the new observation in and predict the coming epoch.
	copy(l.hist[1:], l.hist[:lmsTaps-1])
	l.hist[0] = actual
	var pred int64
	for i, x := range l.hist {
		pred += l.weights[i] * x >> lmsShift
	}
	if pred < 0 {
		pred = 0
	}
	l.pred = pred

	// Budget: predicted need + 25% headroom while uncontended, clamped
	// to the fair share when the memory system saturates. The budget
	// never drops below the fair share absent saturation, so an idle
	// tile's cold restart is not throttled by its own silence.
	fair := l.fairLines()
	budget := pred + pred/4
	if hb.SatAny {
		if budget > fair {
			budget = fair
		}
		if budget < 1 {
			budget = 1
		}
	} else if budget < fair {
		budget = fair
	}
	l.pacer.SetPeriod(uint64(l.params.EpochCycles) / uint64(budget))
}

// CanIssue implements regulate.Source.
func (l *lmsRegulator) CanIssue(now uint64, mc int) bool { return l.pacer.CanIssue(now) }

// NextIssueAt implements regulate.Source: the pacer's next
// credit. The NLMS update at each prediction-window boundary (Epoch)
// swaps the period but never moves the accumulated C_next earlier, and
// response-carried refunds land during the owning tile's own tick, so
// the schedule honors the sleep contract.
func (l *lmsRegulator) NextIssueAt(from uint64, mc int) uint64 { return l.pacer.NextAllowedAt(from) }

// OnIssue implements regulate.Source.
func (l *lmsRegulator) OnIssue(now uint64, mc int) { l.pacer.OnIssue(now) }

// OnDemand feeds the filter's observation stream.
func (l *lmsRegulator) OnDemand(uint64) { l.demand++ }

// OnResponse applies the same cache-filtering corrections as the
// governor's pacer.
func (l *lmsRegulator) OnResponse(pkt *mem.Packet, now uint64) { l.pacer.OnResponse(pkt, now) }

// ProbeState implements regulate.Probe: the predicted demand as M, the
// last absolute prediction error as δM, and the installed period.
func (l *lmsRegulator) ProbeState() (m, dm, period uint64, multi bool) {
	return uint64(l.pred), l.errAbs, l.pacer.Period(), false
}

// Ckpt implements ckpt.Walker: filter taps, history, the open demand
// window, and the pacer registers.
func (l *lmsRegulator) Ckpt(c *ckpt.Codec) {
	for i := range l.hist {
		c.I64(&l.hist[i])
	}
	for i := range l.weights {
		c.I64(&l.weights[i])
	}
	c.U64(&l.demand)
	c.I64(&l.pred)
	c.U64(&l.errAbs)
	l.pacer.Ckpt(c)
}

func init() {
	registerSource(Info{
		Name:   "lmsar",
		Desc:   "NLMS demand predictor paces each tile at predicted need +25%, clamped to fair share under saturation",
		Params: "EpochCycles, BurstCredit",
		Cite:   "Srinivasan, \"LMS-AR: LMS Prediction-based Adaptive Regulator for Memory Bandwidth in Multicore Systems\"",
	}, newLMSRegulator)
}
