package regulate

import "pabst/internal/mem"

// Heartbeat is one epoch delivery to a source regulator: the cycle it
// actually arrives (which may lag the epoch boundary by the gossip tree
// or an injected fault), the wired-OR saturation signal plus the
// per-controller vector, and the optional resynchronization gossip the
// system piggybacks on the broadcast after a partition heals.
type Heartbeat struct {
	// Now is the delivery cycle at the receiving tile.
	Now uint64
	// SatAny is the global wired-OR saturation signal.
	SatAny bool
	// SatPerMC is the per-controller saturation vector.
	SatPerMC []bool
	// Resync, when true, tells the governor that monitors have diverged
	// (observed after a degraded-signal period) and it should converge
	// its multiplier toward GossipM — the maximum M observed across all
	// governors in the previous epoch — within pabst.ResyncWithin
	// epochs. Only a machine with a fault plan and global-lane governors
	// sends it.
	Resync bool
	// GossipM carries the max observed multiplier when Resync is set.
	GossipM uint64
}

// Source is the tile-side regulator interface. pabst.Governor implements
// it — one lane fed by the global wired-OR SAT, or one lane per memory
// controller fed by per-controller SAT (the Section III-C1 variation) —
// as do the related-work sources in qospolicy; Unthrottled is the
// pass-through used when source regulation is off.
//
// The mc argument names the memory controller the miss is headed to;
// global regulators ignore it.
type Source interface {
	// CanIssue reports whether an L2 miss bound for mc may enter the SoC
	// network.
	CanIssue(now uint64, mc int) bool
	// OnIssue charges for a miss bound for mc that entered the network.
	OnIssue(now uint64, mc int)
	// OnResponse applies response-carried corrections (L3 hit refund,
	// writeback charge).
	OnResponse(pkt *mem.Packet, now uint64)
	// OnDemand records that the tile generated a miss (whether or not it
	// has been allowed into the network yet) — the demand-feedback
	// signal for heterogeneous intra-class allocation.
	OnDemand(now uint64)
	// Epoch delivers the heartbeat.
	Epoch(hb Heartbeat)
	// NextIssueAt reports the next cycle, from or later, at which
	// CanIssue(_, mc) could turn true, so the event kernel can sleep a
	// tile with queued misses until the next grant. The reported cycle
	// must only move earlier through actions taken during the owning
	// tile's own tick (issue charges, response-carried corrections) or
	// through an Epoch delivery — the one cross-tile source of new
	// grants (token refills) — which the SoC announces to the kernel
	// itself (epoch deliveries wake or dirty-mark the receiving tile). A
	// channel with no computable grant time reports NeverIssue.
	// Returning from is always sound: it makes the tile poll every
	// cycle it holds a queued miss.
	NextIssueAt(from uint64, mc int) uint64
}

// Probe is implemented by sources that expose their regulator registers
// for observability: the throttle multiplier M, the step magnitude δM,
// and the installed pacing period. multi marks regulators with more than
// one channel, which report their channel-0 registers as representative
// (all channels share identical inputs per the lockstep property, so
// channel 0 characterizes the regulator unless channels saturate
// unevenly). Pass-through and static sources have no registers and do
// not implement Probe.
type Probe interface {
	ProbeState() (m, dm, period uint64, multi bool)
}

// Watchdog is implemented by sources that degrade gracefully when the
// heartbeat stops arriving: the tile calls WatchdogTick every cycle so
// the regulator can notice a stale feedback channel and fall back to a
// conservative rate instead of free-running on the last multiplier.
type Watchdog interface {
	WatchdogTick(now uint64)
	// WatchdogNextAt reports the earliest cycle at which WatchdogTick
	// would act (the armed deadline). The deadline only moves later —
	// heartbeats push it forward — so the event kernel may sleep the
	// tile until this cycle; a heartbeat arriving meanwhile just turns
	// the scheduled wake into a no-op tick.
	WatchdogNextAt() uint64
}

// NeverIssue is the NextIssueAt result for a channel whose next grant
// cannot come from the source's own clock — only an external event
// (an epoch refill) can create one, and that event wakes the tile.
const NeverIssue = ^uint64(0)

// Unthrottled is a Source that never throttles.
type Unthrottled struct{}

// CanIssue implements Source.
func (Unthrottled) CanIssue(uint64, int) bool { return true }

// OnIssue implements Source.
func (Unthrottled) OnIssue(uint64, int) {}

// OnResponse implements Source.
func (Unthrottled) OnResponse(*mem.Packet, uint64) {}

// OnDemand implements Source.
func (Unthrottled) OnDemand(uint64) {}

// Epoch implements Source.
func (Unthrottled) Epoch(Heartbeat) {}

// NextIssueAt implements Source: an unthrottled source can
// always issue, so a tile with queued work is busy immediately. (This
// also covers the source half of target-only policies such as dpq.)
func (Unthrottled) NextIssueAt(from uint64, mc int) uint64 { return from }
