package sim

// Ticker is a component stepped once per simulated cycle.
type Ticker interface {
	Tick(now uint64)
}

// TickFunc adapts a function to the Ticker interface.
type TickFunc func(now uint64)

// Tick implements Ticker.
func (f TickFunc) Tick(now uint64) { f(now) }

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

// Sleeper is a component the event kernel (events.go) schedules
// individually. NextEventAt reports the earliest cycle >= from at which
// the component has work to do (NoEvent when it is fully drained);
// FastForward tells it the cycles [from, to) passed without a Tick so it
// can account for them (cycle counters, refresh catch-up).
//
// The contract that keeps skipping bit-identical to ticking: when
// NextEventAt(from) returns t > from, ticking the component on any cycle
// in [from, t) must be exactly FastForward over that cycle — the same
// accounting (an idle controller still integrates its saturation monitor
// and refreshes; a refused front door still rotates its pointer), and
// nothing else — and FastForward over any sub-span must equal the ticks
// it replaces. When in doubt, return `from` (never sleep).
type Sleeper interface {
	Ticker
	NextEventAt(from uint64) uint64
	FastForward(from, to uint64)
}

// NoEvent is the NextEventAt result of a component with no pending work.
const NoEvent = ^uint64(0)

// Kernel owns the global clock and the ordered set of components.
// The zero value is ready to use.
//
// It has two modes. After SetEventMode (events.go) — the production
// path — components register individually and a cycle visits only those
// with due work. Without it the kernel is the reference loop the event
// mode is differentially tested against: hooks, then every registered
// Ticker, then now++, with no skipping of any kind.
type Kernel struct {
	now     uint64
	tickers []Ticker
	hooks   []hook

	skipped uint64 // cycles the event mode jumped over
	running bool   // inside Run: cycle k.now's hook phase has begun

	ev *events // non-nil after SetEventMode
}

// Now returns the current cycle. The first cycle executed by Run is 0.
func (k *Kernel) Now() uint64 { return k.now }

// Register appends a component to the tick order. Components registered
// earlier observe state produced by later components one cycle delayed,
// so registration order is part of the model and must be deterministic.
// In event mode use RegisterEvent instead.
func (k *Kernel) Register(t Ticker) {
	if k.ev != nil {
		panic("sim: Register after SetEventMode")
	}
	k.tickers = append(k.tickers, t)
}

// Every schedules fn to run at every cycle c where c >= phase and
// (c-phase) is a multiple of period, before the tickers for that cycle.
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

// Skipped returns how many cycles the event mode jumped over (always
// zero on the reference loop).
func (k *Kernel) Skipped() uint64 { return k.skipped }

// Run advances the clock by cycles steps.
func (k *Kernel) Run(cycles uint64) {
	end := k.now + cycles
	// Each hook's fire cycle is kept, not derived per cycle. The clock
	// may have been restored and hooks added since the last Run, so every
	// hook is armed from the clock here; the loops below never move the
	// clock past a hook's next fire cycle, so == finds it.
	for i := range k.hooks {
		k.hooks[i].arm(k.now)
	}
	k.running = true
	if k.ev != nil {
		k.runEvents(end)
	} else {
		for k.now < end {
			now := k.now
			k.fireHooks(now)
			for _, t := range k.tickers {
				t.Tick(now)
			}
			k.now++
		}
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
