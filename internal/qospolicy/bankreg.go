package qospolicy

import (
	"pabst/internal/ckpt"
	"pabst/internal/mem"
	"pabst/internal/qos"
	"pabst/internal/regulate"
)

// bankRegulator is a per-channel token-bucket source regulator in the
// spirit of per-bank memory bandwidth regulation (Sullivan et al.): each
// tile holds an independent budget of line transfers per epoch for every
// memory channel, derived from the class share of that channel's peak
// capacity. A channel whose tokens are exhausted blocks further misses
// to that channel until the next replenish, while traffic to other
// channels proceeds — the per-bank isolation property, mapped onto this
// simulator's channel granularity.
//
// Unlike the PABST governor there is no saturation feedback: budgets are
// recomputed from shares alone each epoch, so idle bandwidth on a busy
// channel is not redistributed (the scheme trades work conservation for
// per-channel predictability).
type bankRegulator struct {
	reg   *qos.Registry
	class mem.ClassID

	// perMCEpochLines is one channel's line-transfer capacity per epoch
	// (structural).
	perMCEpochLines float64

	budget int64   // per-channel tokens granted each epoch
	tokens []int64 // remaining tokens, one bucket per channel
}

func newBankRegulator(env SourceEnv) regulate.Source {
	n := env.NumMCs
	if n <= 0 {
		n = 1
	}
	b := &bankRegulator{
		reg:             env.Reg,
		class:           env.Class,
		perMCEpochLines: env.PeakBytesPerCycle / float64(n) * float64(env.Params.EpochCycles) / float64(mem.LineSize),
		tokens:          make([]int64, n),
	}
	b.install()
	b.replenish()
	return b
}

// install recomputes the per-channel budget from the class's current
// share, so software reweighting takes effect at the next epoch.
func (b *bankRegulator) install() {
	share := b.reg.Share(b.class)
	threads := b.reg.Threads(b.class)
	if threads <= 0 {
		threads = 1
	}
	budget := int64(share * b.perMCEpochLines / float64(threads))
	if budget < 1 {
		budget = 1
	}
	b.budget = budget
}

func (b *bankRegulator) replenish() {
	for i := range b.tokens {
		b.tokens[i] = b.budget
	}
}

// CanIssue implements regulate.Source: a miss may enter the network only
// while its destination channel's bucket holds tokens.
func (b *bankRegulator) CanIssue(now uint64, mc int) bool { return b.tokens[mc] > 0 }

// NextIssueAt implements regulate.Source. A channel with tokens
// can issue immediately; an exhausted bucket has no self-scheduled
// refill — the next grant comes only from an epoch replenish, which
// reaches the tile as a heartbeat delivery and wakes it — so it reports
// NeverIssue rather than guessing the epoch boundary.
func (b *bankRegulator) NextIssueAt(from uint64, mc int) uint64 {
	if b.tokens[mc] > 0 {
		return from
	}
	return regulate.NeverIssue
}

// OnIssue implements regulate.Source.
func (b *bankRegulator) OnIssue(now uint64, mc int) { b.tokens[mc]-- }

// OnResponse applies the cache-filtering corrections per channel: an L3
// hit never consumed channel bandwidth (refund, clamped at the budget),
// a fill-generated writeback consumed an extra transfer (charge; the
// bucket may go negative, deferring the next epoch's traffic).
func (b *bankRegulator) OnResponse(pkt *mem.Packet, now uint64) {
	if pkt.L3Hit {
		if b.tokens[pkt.MC] < b.budget {
			b.tokens[pkt.MC]++
		}
	}
	if pkt.WBGen {
		b.tokens[pkt.MC]--
	}
}

// OnDemand implements regulate.Source; budgets are demand-independent.
func (b *bankRegulator) OnDemand(uint64) {}

// Epoch re-reads the share and refills every bucket. The saturation
// signal is deliberately ignored — the mechanism has no feedback loop.
func (b *bankRegulator) Epoch(regulate.Heartbeat) {
	b.install()
	b.replenish()
}

// ProbeState implements regulate.Probe: the per-channel budget as M, the
// channel-0 residual tokens as δM (representative under the same
// convention the per-controller governor uses), no pacing period, multi set.
func (b *bankRegulator) ProbeState() (m, dm, period uint64, multi bool) {
	t := b.tokens[0]
	if t < 0 {
		t = 0
	}
	return uint64(b.budget), uint64(t), 0, true
}

// Ckpt implements ckpt.Walker: budget plus every bucket. The channel
// count is structural, stored only as a consistency check.
func (b *bankRegulator) Ckpt(c *ckpt.Codec) {
	if !c.Same(len(b.tokens), "bankreg channels") {
		return
	}
	for i := range b.tokens {
		c.I64(&b.tokens[i])
	}
	c.I64(&b.budget)
}

func init() {
	registerSource(Info{
		Name:   "bankreg",
		Desc:   "per-channel token budgets from the class share, replenished each epoch (no feedback)",
		Params: "EpochCycles",
		Cite:   "Sullivan, Mamandipoor, Strickler, Yun, \"Per-Bank Memory Bandwidth Regulation for Predictable and Performant Real-Time Systems\"",
	}, newBankRegulator)
}
