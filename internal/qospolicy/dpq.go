package qospolicy

import (
	"pabst/internal/ckpt"
	"pabst/internal/dram"
	"pabst/internal/mem"
	"pabst/internal/qos"
)

// dpqArbiter is a dynamic-priority-queue target arbiter after Shah,
// Raabe, and Knoll: every read is stamped, on front-end entry, with an
// absolute service deadline a fixed per-class offset past its arrival,
// and the controller serves the earliest deadline first. Because the
// offset is bounded (stride × scale) and strictly increasing arrival
// times make deadlines strictly increasing within a class, no request
// can be overtaken by more than the deadline spread — the bounded
// access latency that makes the scheme WCET-analyzable. Higher-weight
// classes carry smaller strides and therefore tighter deadlines, giving
// them proportionally earlier service under contention without ever
// starving the low class.
//
// Where the PABST arbiter runs per-class virtual clocks charged per
// request (bandwidth fairness), DPQ prioritizes on arrival time alone
// (latency bounds): the two occupy different points of the
// fairness/predictability trade-off and share only the EDF front end.
//
// DPQ is target-only: its source half is the unthrottled pass-through,
// whose trivial issue schedule (regulate.Unthrottled.NextIssueAt) keeps
// event-kernel tiles from polling under none+dpq pairs.
type dpqArbiter struct {
	reg *qos.Registry
	// scale converts a class stride into a deadline offset in cycles
	// (Params.Slack doubles as the DPQ deadline scale).
	scale uint64

	lastPicked uint64 // deadline of the most recently serviced read
}

func newDPQArbiter(env TargetEnv) (dram.ReadSched, dram.Arbiter) {
	scale := env.Params.Slack
	if scale == 0 {
		scale = 1
	}
	return dram.SchedEDF, &dpqArbiter{reg: env.Reg, scale: scale}
}

// OnAccept implements dram.Arbiter: stamp the bounded deadline.
func (a *dpqArbiter) OnAccept(pkt *mem.Packet, now uint64) {
	pkt.Deadline = now + a.reg.Stride(pkt.Class)*a.scale
}

// OnPick implements dram.Arbiter.
func (a *dpqArbiter) OnPick(pkt *mem.Packet, now uint64) { a.lastPicked = pkt.Deadline }

// LastPicked reports the deadline of the most recently serviced read,
// the observability hook the epoch trace reads from every arbiter.
func (a *dpqArbiter) LastPicked() uint64 { return a.lastPicked }

// Ckpt implements ckpt.Walker. The deadline scale is structural;
// in-flight packet deadlines are stored with their queues.
func (a *dpqArbiter) Ckpt(c *ckpt.Codec) { c.U64(&a.lastPicked) }

func init() {
	registerTarget(Info{
		Name:   "dpq",
		Desc:   "bounded-latency EDF: deadline = arrival + class stride × scale, earliest served first",
		Params: "Slack (deadline scale)",
		Cite:   "Shah, Raabe, Knoll, \"Dynamic Priority Queue: An SDRAM Arbiter With Bounded Access Latencies for Tight WCET Calculation\"",
	}, newDPQArbiter)
}
