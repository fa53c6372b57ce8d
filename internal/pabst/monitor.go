package pabst

// Direction of the goal request rate for the current epoch.
type Direction uint8

const (
	// RateUp means the governors are raising the goal rate (M falling).
	RateUp Direction = iota
	// RateDown means the governors are lowering the goal rate (M rising).
	RateDown
)

func (d Direction) String() string {
	if d == RateUp {
		return "rate-up"
	}
	return "rate-down"
}

// SystemMonitor is the per-governor state machine of Figure 4 and
// Tables I–II. It turns the binary saturation history into the throttle
// multiplier M.
//
// Every governor owns its own monitor, but because all monitors receive
// the same epoch heartbeat and the same wired-OR SAT signal, they evolve
// identically — the distributed-lockstep property the paper relies on
// (verified by TestMonitorsStayInLockstep).
//
// Semantics:
//   - M always moves opposite to the goal rate: a high SAT epoch lowers
//     the rate by raising M, a low SAT epoch raises the rate by lowering
//     M.
//   - The step magnitude is δM = M >> k, a shifted fraction of the
//     current multiplier, so steps scale with the operating point and
//     all magnitude changes remain shift-implementable as the paper
//     requires.
//   - The shift k widens (δM collapses ×4) whenever the direction flips:
//     noisy SAT is the signature of running right at the saturation
//     knee, where steps must be small.
//   - Once the direction has stayed the same for Inertia consecutive
//     epochs, k narrows by one each epoch (δM doubles), so the governor
//     responds exponentially fast to sustained shifts in demand.
//   - While M is pinned at a bound the gain resets (anti-windup), so the
//     eventual direction flip does not fire a banked overshoot.
type SystemMonitor struct {
	p Params

	m uint64
	k uint // δM = max(M >> k, 1)

	dir   Direction
	e     int  // consecutive epochs without a direction flip
	armed bool // dir is meaningful only after the first epoch
}

// NewSystemMonitor returns a monitor in its initial state. params must
// already be validated.
func NewSystemMonitor(params Params) *SystemMonitor {
	return &SystemMonitor{p: params, m: MInit, k: ShiftInit}
}

// M returns the current throttle multiplier.
func (s *SystemMonitor) M() uint64 { return s.m }

// DM returns the current adjustment magnitude δM.
func (s *SystemMonitor) DM() uint64 {
	dm := s.m >> s.k
	if dm == 0 {
		dm = 1
	}
	return dm
}

// Shift returns the current gain shift k.
func (s *SystemMonitor) Shift() uint { return s.k }

// E returns the consecutive same-direction epoch count.
func (s *SystemMonitor) E() int { return s.e }

// Dir returns the current goal-rate direction.
func (s *SystemMonitor) Dir() Direction { return s.dir }

// Epoch consumes one saturation sample at an epoch boundary and returns
// the updated multiplier M.
func (s *SystemMonitor) Epoch(sat bool) uint64 {
	dir := RateUp
	if sat {
		dir = RateDown
	}

	switch {
	case !s.armed:
		s.armed = true
		s.e = 0
	case dir != s.dir:
		// Fluctuating SAT: collapse the step (δM / 4) and restart the
		// stability count. This is the "δM always decreases following a
		// high SAT signal" clause at the low→high flip, applied
		// symmetrically.
		s.e = 0
		s.k = minUint(s.k+2, ShiftMax)
	default:
		s.e++
		if s.e >= s.p.Inertia && s.k > ShiftMin {
			// Steady SAT: double the step.
			s.k--
		}
	}
	s.dir = dir

	// Apply the step: M moves opposite to the goal rate.
	dm := s.DM()
	if dir == RateDown {
		s.m = clamp(s.m+dm, MMin, MMax)
	} else {
		if s.m > dm {
			s.m = clamp(s.m-dm, MMin, MMax)
		} else {
			s.m = MMin
		}
	}
	// Anti-windup: while M is pinned at a bound, further same-direction
	// pressure has no effect; banking gain would only fire a violent
	// overshoot when the direction finally flips.
	if s.m == MMin || s.m == MMax {
		s.k = ShiftMax
	}
	return s.m
}

// Hold consumes one degraded interval with no usable SAT sample: M stays
// where it is and the gain fully resets (anti-windup — a faulted span
// must never bank overshoot, so when the signal returns the first steps
// are the smallest possible). The direction also disarms, so the first
// healthy epoch takes a fresh step instead of paying a spurious
// direction-flip collapse against a stale direction.
func (s *SystemMonitor) Hold() {
	s.k = ShiftMax
	s.e = 0
	s.armed = false
}

// Decay consumes one prolonged-silence interval: the gain resets and M
// moves one bounded step toward the conservative fallback multiplier.
// Each step closes at least a quarter of the remaining gap (minimum 1)
// and lands exactly on the fallback, so a silenced governor converges to
// the safe operating point in logarithmic time instead of free-running
// at a rate negotiated under conditions that no longer hold.
func (s *SystemMonitor) Decay(fallback uint64) uint64 {
	fallback = clamp(fallback, MMin, MMax)
	s.Hold()
	switch {
	case s.m < fallback:
		gap := fallback - s.m
		s.m += maxU64(gap/4, 1)
		if s.m > fallback {
			s.m = fallback
		}
	case s.m > fallback:
		gap := s.m - fallback
		s.m -= maxU64(gap/4, 1)
		if s.m < fallback {
			s.m = fallback
		}
	}
	return s.m
}

// ResyncStep consumes one resynchronization epoch after a degraded
// period heals: M moves toward target (the max M observed across all
// monitors) far enough to provably arrive within `left` more steps —
// each call closes ceil(gap/left) of the remaining distance. The gain
// resets on every step, so all monitors exit resynchronization in the
// identical state (M=target, k=ShiftMax, disarmed) and the distributed
// lockstep property is restored, not merely approximated.
func (s *SystemMonitor) ResyncStep(target uint64, left int) uint64 {
	if left < 1 {
		left = 1
	}
	target = clamp(target, MMin, MMax)
	s.Hold()
	switch {
	case s.m < target:
		gap := target - s.m
		s.m += (gap + uint64(left) - 1) / uint64(left)
	case s.m > target:
		gap := s.m - target
		s.m -= (gap + uint64(left) - 1) / uint64(left)
	}
	return s.m
}

func clamp(v, lo, hi uint64) uint64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func minUint(a, b uint) uint {
	if a < b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
