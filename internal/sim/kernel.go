package sim

type hook struct {
	period uint64
	phase  uint64
	next   uint64 // next cycle the hook fires; armed on Run entry
	fn     func(now uint64)
}

// arm sets next to the hook's first fire cycle >= from.
func (h *hook) arm(from uint64) {
	h.next = h.phase
	if from > h.phase {
		h.next += (from - h.phase + h.period - 1) / h.period * h.period
	}
}

// Sleeper is a component the kernel (events.go) schedules individually.
// Tick steps it through one cycle; NextEventAt reports the earliest
// cycle >= from at which the component has work to do (NoEvent when it
// is fully drained); FastForward tells it the cycles [from, to) passed
// without a Tick so it can account for them (cycle counters, saturation
// integrals).
//
// The contract that keeps skipping bit-identical to ticking: when
// NextEventAt(from) returns t > from, ticking the component on any cycle
// in [from, t) must be exactly FastForward over that cycle — the same
// accounting (an idle controller still integrates its saturation monitor
// and counts its pending cycles), and
// nothing else — and FastForward over any sub-span must equal the ticks
// it replaces. When in doubt, return `from` (never sleep).
type Sleeper interface {
	Tick(now uint64)
	NextEventAt(from uint64) uint64
	FastForward(from, to uint64)
}

// NoEvent is the NextEventAt result of a component with no pending work.
const NoEvent = ^uint64(0)

// Kernel owns the global clock and the ordered set of components.
// The zero value is ready to use.
//
// Components register once (SetEventMode, RegisterEvent; events.go) and
// every cycle goes through the same dispatcher in the same class order.
// What Reference selects is which components a cycle hands it. By
// default, the production path, a cycle visits only the components with
// due work and the clock jumps over cycles with none. With Reference set
// the kernel is the oracle that path is differentially tested against:
// hooks, then every registered component, then now++, with no
// NextEventAt, no FastForward and no skipping of any kind.
type Kernel struct {
	// Reference visits every component every cycle. Set it before
	// registering anything.
	Reference bool

	now   uint64
	hooks []hook

	skipped uint64 // cycles the clock jumped over
	running bool   // inside Run: cycle k.now's hook phase has begun

	ev *events // non-nil after SetEventMode
}

// Now returns the current cycle. The first cycle executed by Run is 0.
func (k *Kernel) Now() uint64 { return k.now }

// Every schedules fn to run at every cycle c where c >= phase and
// (c-phase) is a multiple of period, before that cycle's components.
// period must be non-zero.
func (k *Kernel) Every(period, phase uint64, fn func(now uint64)) {
	if period == 0 {
		panic("sim: Every with zero period")
	}
	h := hook{period: period, phase: phase, fn: fn}
	if k.running {
		// Run armed the others on entry; the current cycle's hook phase
		// is already under way and does not see a hook added during it.
		h.arm(k.now + 1)
	}
	k.hooks = append(k.hooks, h)
}

// Skipped returns how many cycles the kernel jumped over (always zero
// on the reference loop).
func (k *Kernel) Skipped() uint64 { return k.skipped }

// Run advances the clock by cycles steps.
func (k *Kernel) Run(cycles uint64) {
	if k.ev == nil {
		k.SetEventMode(0, nil) // a clock with hooks only
	}
	end := k.now + cycles
	// Each hook's fire cycle is kept, not derived per cycle. The clock
	// may have been restored and hooks added since the last Run, so every
	// hook is armed from the clock here; the loops never move the clock
	// past a hook's next fire cycle, so == finds it.
	for i := range k.hooks {
		k.hooks[i].arm(k.now)
	}
	k.running = true
	if k.Reference {
		k.runReference(end)
	} else {
		k.runEvents(end)
	}
	k.running = false
}

// fireHooks runs, in registration order, the hooks due at cycle now.
func (k *Kernel) fireHooks(now uint64) {
	for i := range k.hooks {
		if h := &k.hooks[i]; h.next == now {
			h.next += h.period
			h.fn(now)
		}
	}
}

// nextHookAt returns the earliest cycle at which a periodic hook fires,
// or NoEvent with no hooks.
func (k *Kernel) nextHookAt() uint64 {
	next := NoEvent
	for i := range k.hooks {
		if at := k.hooks[i].next; at < next {
			next = at
		}
	}
	return next
}
