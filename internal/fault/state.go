package fault

import (
	"pabst/internal/ckpt"
	"pabst/internal/sim"
)

// Ckpt implements ckpt.Walker: the per-domain RNG cursors, the
// per-sender NoC streams, and the injected-fault counters. The plan
// itself is structural (part of the configuration — an injector
// exists iff the plan is active), as are the stream counts.
func (in *Injector) Ckpt(c *ckpt.Codec) {
	in.satRNG.Ckpt(c)
	in.dramRNG.Ckpt(c)
	for _, streams := range [][]sim.RNG{in.nocTile, in.nocMC} {
		if !c.Same(len(streams), "injector NoC streams") {
			return
		}
		for i := range streams {
			streams[i].Ckpt(c)
		}
	}
	in.counters.Ckpt(c)
}
