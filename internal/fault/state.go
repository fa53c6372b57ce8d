package fault

import "pabst/internal/ckpt"

// Ckpt implements ckpt.Walker: the per-domain RNG cursors, the sharded
// per-entity NoC streams with their unfolded tallies, and the
// injected-fault counters (folded first when saving so the snapshot is
// internally consistent). The plan itself is structural (part of the
// config fingerprint — an injector exists iff the plan is active), as is
// the shard count.
func (in *Injector) Ckpt(c *ckpt.Codec) {
	if !c.Loading() {
		in.foldNoC()
	}
	in.satRNG.Ckpt(c)
	in.dramRNG.Ckpt(c)
	in.nocRNG.Ckpt(c)
	for _, shards := range [][]nocShard{in.nocTile, in.nocMC} {
		if !c.Same(len(shards), "injector NoC shards") {
			return
		}
		for i := range shards {
			sh := &shards[i]
			sh.rng.Ckpt(c)
			c.U64(&sh.dropped)
			c.U64(&sh.delayed)
		}
	}
	c.U64(&in.foldedD)
	c.U64(&in.foldedL)
	in.counters.Ckpt(c)
}
