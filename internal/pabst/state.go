package pabst

import "pabst/internal/ckpt"

// Ckpt implements ckpt.Walker for the monitor's Figure 4 registers.
// Params are structural.
func (s *SystemMonitor) Ckpt(c *ckpt.Codec) {
	c.U64(&s.m)
	k := uint64(s.k)
	c.U64(&k)
	s.k = uint(k)
	c.Enum((*uint8)(&s.dir), int(RateDown)+1)
	c.Int(&s.e)
	c.Bool(&s.armed)
}

// Ckpt implements ckpt.Walker. The burst bound comes from the
// constructor; period and C_next are the live registers.
func (p *Pacer) Ckpt(c *ckpt.Codec) {
	c.I64(&p.period)
	c.I64(&p.cNext)
}

func (d *DegradeStats) ckpt(c *ckpt.Codec) {
	c.U64(&d.StaleIntervals)
	c.U64(&d.Decays)
	c.U64(&d.ResyncEpochs)
}

// Ckpt implements ckpt.Walker for the governor, one walk whatever the
// lane count: the count itself (structural, a consistency check), every
// lane's monitor and pacer, the demand accumulator, and the
// degraded-signal registers.
func (g *Governor) Ckpt(c *ckpt.Codec) {
	if !c.Same(len(g.lanes), "governor lanes") {
		return
	}
	for _, l := range g.lanes {
		l.monitor.Ckpt(c)
		l.pacer.Ckpt(c)
	}
	c.U64(&g.demand)
	c.U64(&g.lastBeat)
	c.Int(&g.staleIntervals)
	c.Int(&g.resyncLeft)
	g.degrade.ckpt(c)
}

// Ckpt implements ckpt.Walker. Only the pacer is live state; the period
// is also re-derivable from the share but saving it keeps the restored
// limiter identical even mid-epoch after a reweight.
func (s *StaticLimiter) Ckpt(c *ckpt.Codec) { s.pacer.Ckpt(c) }

// Ckpt implements ckpt.Walker for the target arbiter's virtual clocks
// and slack reference.
func (a *Arbiter) Ckpt(c *ckpt.Codec) {
	c.U64s(a.vclock[:])
	c.U64(&a.lastPicked)
}
