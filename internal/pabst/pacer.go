package pabst

import "pabst/internal/mem"

// Pacer enforces the governor's goal request period at the source
// (Section III-B3). It tracks the next cycle a request may issue, builds
// bounded credit during idleness so bursts proceed unthrottled, and
// supports the paper's cache-filtering corrections: an L3 hit refunds the
// charge and an L3-generated writeback adds one.
//
// Internally C_next is kept as a signed value so credit (C_next behind
// C_now) is representable directly.
type Pacer struct {
	period int64 // source_period_c, cycles between requests; 0 = unthrottled
	burst  int64 // credit bound in requests
	cNext  int64
}

// NewPacer returns a pacer allowing burstCredit requests of stored
// credit. The initial period is zero (unthrottled) until the first epoch.
func NewPacer(burstCredit int) *Pacer {
	if burstCredit <= 0 {
		panic("pabst: burst credit must be positive")
	}
	return &Pacer{burst: int64(burstCredit)}
}

// Period returns the current source period in cycles.
func (p *Pacer) Period() uint64 { return uint64(p.period) }

// SetPeriod installs a new goal period. Called by the governor at epoch
// boundaries; C_next is left untouched, per the paper.
func (p *Pacer) SetPeriod(period uint64) {
	const maxPeriod = int64(1) << 40 // avoid credit-bound overflow
	if period > uint64(maxPeriod) {
		period = uint64(maxPeriod)
	}
	p.period = int64(period)
}

// CanIssue reports whether a request may enter the SoC network at cycle
// now. Requests are throttled while C_next is in the future.
func (p *Pacer) CanIssue(now uint64) bool {
	return p.cNext <= int64(now)
}

// NextAllowedAt reports the earliest cycle >= from at which CanIssue
// will hold, assuming no intervening charges or refunds. C_next moves
// only on the owning tile's own actions (issue, response corrections),
// so the event kernel may sleep the tile until this cycle without
// missing a grant.
func (p *Pacer) NextAllowedAt(from uint64) uint64 {
	if p.cNext <= int64(from) {
		return from
	}
	return uint64(p.cNext)
}

// OnIssue charges one request issued at cycle now. The caller must have
// checked CanIssue. Credit is bounded: C_next never falls more than
// burst×period behind C_now, so at most `burst` requests can issue
// back-to-back after idleness.
func (p *Pacer) OnIssue(now uint64) {
	floor := int64(now) - p.burst*p.period
	if p.cNext < floor {
		p.cNext = floor
	}
	p.cNext += p.period
}

// OnResponse applies the cache-filtering corrections a response
// carries; every pacer-backed source routes its responses through here.
// An L3 hit undoes one request charge: the miss was serviced by the
// shared cache and never reached memory. A writeback-generating fill
// charges one extra period: the class's demand fill caused a dirty L3
// eviction, consuming write bandwidth at the memory controller.
func (p *Pacer) OnResponse(pkt *mem.Packet, now uint64) {
	if pkt.L3Hit {
		p.cNext -= p.period
	}
	if pkt.WBGen {
		p.cNext += p.period
	}
}

// Credit returns how many whole requests of credit are currently stored.
func (p *Pacer) Credit(now uint64) int64 {
	if p.period == 0 {
		return p.burst
	}
	c := (int64(now) - p.cNext) / p.period
	if c < 0 {
		return 0
	}
	if c > p.burst {
		return p.burst
	}
	return c
}
