package pabst

import (
	"pabst/internal/mem"
	"pabst/internal/qos"
	"pabst/internal/regulate"
)

// StaticLimiter is the non-work-conserving source throttle the related
// work builds on (clock-modulation / static rate-limit schemes à la
// Herdrich et al. and the fixed distributions of MITTS): each class is
// paced to a fixed fraction of peak bandwidth derived from its share at
// configuration time, with no feedback. Idle bandwidth from one class is
// never redistributed to another — the property PABST's governor exists
// to fix.
//
// It implements regulate.Source so it can be dropped into the same tile
// slot as the governors for comparison experiments.
type StaticLimiter struct {
	reg   *qos.Registry
	class mem.ClassID
	pacer *Pacer

	peakBytesPerCycle float64
}

// NewStaticLimiter builds a limiter pacing the tile to
// share × peak / threads, where share is the class's proportional share
// at construction time.
func NewStaticLimiter(params Params, reg *qos.Registry, class mem.ClassID, peakBytesPerCycle float64) *StaticLimiter {
	s := &StaticLimiter{
		reg:               reg,
		class:             class,
		pacer:             NewPacer(params.BurstCredit),
		peakBytesPerCycle: peakBytesPerCycle,
	}
	s.install()
	return s
}

func (s *StaticLimiter) install() {
	share := s.reg.Share(s.class)
	threads := s.reg.Threads(s.class)
	if threads <= 0 {
		threads = 1
	}
	classLinesPerCycle := share * s.peakBytesPerCycle / float64(mem.LineSize)
	if classLinesPerCycle <= 0 {
		s.pacer.SetPeriod(1 << 30)
		return
	}
	period := float64(threads) / classLinesPerCycle
	s.pacer.SetPeriod(uint64(period))
}

// Pacer exposes the limiter's pacer.
func (s *StaticLimiter) Pacer() *Pacer { return s.pacer }

// CanIssue implements regulate.Source.
func (s *StaticLimiter) CanIssue(now uint64, mc int) bool { return s.pacer.CanIssue(now) }

// NextIssueAt implements regulate.Source: the single pacer's
// next credit. Epoch reweights change the period but never move the
// already-accumulated C_next earlier, so a sleeping tile's grant time
// stays valid across heartbeats.
func (s *StaticLimiter) NextIssueAt(from uint64, mc int) uint64 { return s.pacer.NextAllowedAt(from) }

// OnIssue implements regulate.Source.
func (s *StaticLimiter) OnIssue(now uint64, mc int) { s.pacer.OnIssue(now) }

// OnResponse applies the same cache-filtering corrections as the
// governor (an L3 hit does not consume the memory-bandwidth budget).
func (s *StaticLimiter) OnResponse(pkt *mem.Packet, now uint64) { s.pacer.OnResponse(pkt, now) }

// OnDemand implements regulate.Source; the static limiter ignores demand
// by definition.
func (s *StaticLimiter) OnDemand(uint64) {}

// Epoch re-reads the class share so software reweighting still works;
// there is no feedback from saturation (the defining limitation), so a
// degraded heartbeat changes nothing and no watchdog is needed.
func (s *StaticLimiter) Epoch(regulate.Heartbeat) { s.install() }
