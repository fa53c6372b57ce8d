package workload

import "pabst/internal/ckpt"

// CkptOp walks one op by value (a core's window holds ops, not
// generators).
func CkptOp(c *ckpt.Codec, op *Op) {
	c.U64((*uint64)(&op.Addr))
	c.Bool(&op.Write)
	c.Int(&op.DependsOn)
	c.Int(&op.Gap)
	c.U64(&op.Insts)
	c.U64(&op.Tag)
}

// Ckpt implements ckpt.Walker.
func (s *Stream) Ckpt(c *ckpt.Codec) { c.U64(&s.pos) }

// Ckpt implements ckpt.Walker.
func (ch *Chaser) Ckpt(c *ckpt.Codec) { ch.rng.Ckpt(c) }

// Ckpt implements ckpt.Walker.
func (p *PeriodicStream) Ckpt(c *ckpt.Codec) {
	c.U64(&p.pos)
	c.U64(&p.lastIssue)
}

// Ckpt implements ckpt.Walker.
func (b *Bursty) Ckpt(c *ckpt.Codec) {
	b.rng.Ckpt(c)
	c.Int(&b.inBurst)
	c.U64(&b.burst)
	b.startedAt.Ckpt(c)
	b.hist.Ckpt(c)
}

// Ckpt implements ckpt.Walker: the filter predicate is structural, the
// wrapped stream carries all the state.
func (f *FilteredStream) Ckpt(c *ckpt.Codec) { f.inner.Ckpt(c) }

// Ckpt implements ckpt.Walker. phaseLen is stored even though it is set
// at construction: it was drawn from the RNG, so a reconstructed proxy
// (whose construction consumed a draw from a fresh stream) must have both
// the phase length and the RNG cursor overlaid together.
func (s *Spec) Ckpt(c *ckpt.Codec) {
	s.rng.Ckpt(c)
	c.U64(&s.seqPos)
	c.U64(&s.phaseLen)
	c.U64(&s.lastIssue)
}

// Ckpt implements ckpt.Walker.
func (m *Memcached) Ckpt(c *ckpt.Codec) {
	m.rng.Ckpt(c)
	c.Int(&m.opInTxn)
	c.U64(&m.txn)
	m.startedAt.Ckpt(c)
	m.hist.Ckpt(c)
}

// Ckpt implements ckpt.Walker: the replay cursor. The trace itself is
// structural (supplied at construction).
func (rp *Replayer) Ckpt(c *ckpt.Codec) {
	if c.Same(len(rp.ops), "replayer ops") {
		c.Index(&rp.i, len(rp.ops))
	}
}
