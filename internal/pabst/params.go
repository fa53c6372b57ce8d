package pabst

import "fmt"

// Params collects every tunable of the PABST mechanism. Defaults follow
// the paper where it gives values (epoch 10 µs, F = 16, inertia 3, burst
// 16, slack 128).
type Params struct {
	// EpochCycles is the heartbeat period in CPU cycles (10 µs at the
	// modeled 2 GHz clock = 20000 cycles).
	EpochCycles uint64

	// ScaleF is the constant fractional-rate scale factor F of Eq. 3.
	ScaleF uint64

	// Inertia is the number of consecutive same-direction epochs before
	// δM begins growing again after a direction flip.
	Inertia int

	// BurstCredit bounds pacer credit to this many requests' worth of
	// source period, allowing bursts of up to BurstCredit requests to
	// proceed unthrottled after idleness.
	BurstCredit int

	// Slack caps how far behind the arbiter's last picked virtual
	// deadline a newly assigned deadline may fall, in virtual ticks.
	Slack uint64

	// MInit, MMin, MMax bound the throttle multiplier M.
	MInit, MMin, MMax uint64

	// ShiftInit, ShiftMin, ShiftMax bound the gain shift k: the epoch
	// step is δM = max(M >> k, 1). Smaller k means bigger steps.
	ShiftInit, ShiftMin, ShiftMax uint

	// PerMCGovernors selects the Section III-C1 variation: one governor
	// lane (monitor + pacer) per memory controller fed by that
	// controller's own saturation signal, instead of one lane fed by the
	// global wired-OR. Helps when traffic is skewed across channels.
	PerMCGovernors bool

	// HeterogeneousThreads enables the Section V-B extension: the class
	// allocation is distributed among the class's CPUs in proportion to
	// each CPU's reported miss demand rather than evenly. Not combined
	// with PerMCGovernors.
	HeterogeneousThreads bool

	// GossipFanout selects hierarchical SAT-heartbeat distribution: the
	// epoch signal propagates down a GossipFanout-ary tree over the tiles
	// instead of reaching all of them in one broadcast hop, and each
	// tile's delivery lags by its tree depth times the mesh hop latency.
	// This models what a heartbeat physically costs on a big mesh — a
	// 1024-tile machine cannot assume a single-cycle global wire — while
	// staying within the paper's Section III-D relaxation (lags are a few
	// tens of cycles against a 20k-cycle epoch). Values < 2 keep the
	// paper's flat broadcast.
	GossipFanout int `json:",omitempty"`

	// EpochJitter is the maximum per-tile lag, in cycles, between the
	// epoch heartbeat and its arrival at a tile's governor — modeling
	// the Section III-D relaxation that "lockstep" need only hold at a
	// timescale much smaller than an epoch (heartbeats negotiated by
	// network packets rather than dedicated wires). Zero means perfectly
	// synchronous delivery.
	EpochJitter uint64

	// Graceful degradation of the feedback loop. The paper assumes the
	// heartbeat/SAT broadcast is perfect; these knobs define behavior
	// when it is not (late, lossy, or partitioned — see internal/fault).
	// All default to zero, which disables degradation handling entirely
	// and keeps clean-run behavior bit-identical.

	// WatchdogCycles arms the stale-signal watchdog: a governor that has
	// received no heartbeat for this many cycles treats the feedback
	// channel as degraded. Must exceed EpochCycles+EpochJitter so it can
	// never fire between healthy heartbeats. Zero disables the watchdog.
	WatchdogCycles uint64

	// WatchdogHold is how many expired watchdog deadlines the governor
	// holds its current M (gain reset, no movement) before concluding
	// the silence is prolonged and decaying toward FallbackM.
	WatchdogHold int

	// FallbackM is the conservative multiplier a silenced governor
	// decays toward: without feedback it must not free-run at an
	// aggressive rate negotiated under conditions that no longer hold.
	// Zero means MInit (the safe cold-start operating point).
	FallbackM uint64

	// ResyncEpochs bounds re-convergence after a degraded period heals:
	// when the heartbeat gossips that monitors have diverged, a lagging
	// governor closes ceil(gap/left) of its distance to the max observed
	// M per epoch, provably reaching it within ResyncEpochs epochs.
	// Zero disables resynchronization gossip. Not supported together
	// with PerMCGovernors (the gossip carries a single scalar M).
	ResyncEpochs int
}

// DefaultParams returns the paper's configuration at a 2 GHz CPU clock.
//
// ScaleF differs from the paper's 16: our multiplier M is a plain integer
// rather than hardware fixed-point, so F also sets the rate resolution
// near the operating point. With small strides and 16 active threads,
// F = 256 keeps single-step rate changes under ~10% where F = 16 would
// make them ~100% (Section V-A's large-stride instability).
func DefaultParams() Params {
	return Params{
		EpochCycles: 20000,
		ScaleF:      256,
		Inertia:     3,
		BurstCredit: 16,
		Slack:       128,
		MInit:       4096,
		MMin:        1,
		MMax:        1 << 26,
		ShiftInit:   4,
		ShiftMin:    2,
		ShiftMax:    10,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.EpochCycles == 0 {
		return fmt.Errorf("pabst: epoch must be positive")
	}
	if p.ScaleF == 0 {
		return fmt.Errorf("pabst: scale factor F must be positive")
	}
	if p.Inertia < 0 {
		return fmt.Errorf("pabst: negative inertia")
	}
	if p.BurstCredit <= 0 {
		return fmt.Errorf("pabst: burst credit must be positive")
	}
	if p.MMin == 0 || p.MMin > p.MMax || p.MInit < p.MMin || p.MInit > p.MMax {
		return fmt.Errorf("pabst: M bounds must satisfy 0 < MMin <= MInit <= MMax")
	}
	if p.ShiftMin > p.ShiftMax || p.ShiftInit < p.ShiftMin || p.ShiftInit > p.ShiftMax || p.ShiftMax > 63 {
		return fmt.Errorf("pabst: shift bounds must satisfy ShiftMin <= ShiftInit <= ShiftMax <= 63")
	}
	if p.EpochJitter >= p.EpochCycles {
		return fmt.Errorf("pabst: epoch jitter %d must be well under the epoch length %d", p.EpochJitter, p.EpochCycles)
	}
	if p.GossipFanout < 0 {
		return fmt.Errorf("pabst: negative gossip fanout")
	}
	if p.HeterogeneousThreads && p.PerMCGovernors {
		return fmt.Errorf("pabst: heterogeneous thread allocation is not implemented for per-MC governors")
	}
	if p.WatchdogCycles > 0 && p.WatchdogCycles <= p.EpochCycles+p.EpochJitter {
		return fmt.Errorf("pabst: watchdog deadline %d must exceed epoch+jitter %d or it fires between healthy heartbeats",
			p.WatchdogCycles, p.EpochCycles+p.EpochJitter)
	}
	if p.WatchdogHold < 0 {
		return fmt.Errorf("pabst: negative watchdog hold")
	}
	if p.FallbackM != 0 && (p.FallbackM < p.MMin || p.FallbackM > p.MMax) {
		return fmt.Errorf("pabst: fallback M %d outside [MMin=%d, MMax=%d]", p.FallbackM, p.MMin, p.MMax)
	}
	if p.ResyncEpochs < 0 {
		return fmt.Errorf("pabst: negative resync epoch bound")
	}
	if p.ResyncEpochs > 0 && p.PerMCGovernors {
		return fmt.Errorf("pabst: resynchronization gossip is not implemented for per-MC governors")
	}
	return nil
}

// WithDegradation returns a copy with the graceful-degradation defaults
// armed: a watchdog at twice the epoch length, two held deadlines before
// decay, fallback to the cold-start multiplier, and re-convergence within
// eight epochs of a heal.
func (p Params) WithDegradation() Params {
	p.WatchdogCycles = 2 * p.EpochCycles
	if p.EpochJitter >= p.EpochCycles {
		p.WatchdogCycles = 2 * (p.EpochCycles + p.EpochJitter)
	}
	p.WatchdogHold = 2
	p.FallbackM = 0 // MInit
	if !p.PerMCGovernors {
		p.ResyncEpochs = 8
	}
	return p
}
