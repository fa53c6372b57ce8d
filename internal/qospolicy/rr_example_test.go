package qospolicy

import (
	"pabst/internal/ckpt"
	"pabst/internal/dram"
	"pabst/internal/mem"
	"pabst/internal/qos"
)

// rrArbiter rotates DRAM service across classes: each accepted read's
// deadline is its class's round counter, so EDF picks classes in
// round-robin order regardless of weight.
type rrArbiter struct {
	reg   *qos.Registry
	round []uint64 // per-class rounds issued so far
}

func newRRArbiter(env TargetEnv) (dram.ReadSched, dram.Arbiter) {
	return dram.SchedEDF, &rrArbiter{
		reg:   env.Reg,
		round: make([]uint64, env.Reg.NumClasses()),
	}
}

func (a *rrArbiter) OnAccept(pkt *mem.Packet, now uint64) {
	c := int(pkt.Class)
	a.round[c]++
	pkt.Deadline = a.round[c] // earliest round first = round-robin
}

func (a *rrArbiter) OnPick(pkt *mem.Packet, now uint64) {}

// Ckpt implements ckpt.Walker: the rounds decide future ordering, so
// they are the policy's checkpointed state. The class count is
// structural; Same stores it and refuses an image that disagrees.
func (a *rrArbiter) Ckpt(c *ckpt.Codec) {
	if !c.Same(len(a.round), "rr classes") {
		return
	}
	c.U64s(a.round)
}
