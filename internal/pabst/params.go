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
}

// The bounds of the throttle multiplier M and of the gain shift k (the
// epoch step is δM = max(M >> k, 1); smaller k means bigger steps).
// They are constants, not knobs: no experiment moves them (DESIGN.md
// "Reconstructed details" says why each has its value).
const (
	MInit, MMin, MMax             uint64 = 4096, 1, 1 << 26
	ShiftInit, ShiftMin, ShiftMax uint   = 4, 2, 10
)

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
	if p.GossipFanout < 0 {
		return fmt.Errorf("pabst: negative gossip fanout")
	}
	if p.HeterogeneousThreads && p.PerMCGovernors {
		return fmt.Errorf("pabst: heterogeneous thread allocation is not implemented for per-MC governors")
	}
	return nil
}
