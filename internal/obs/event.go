package obs

import "pabst/internal/mem"

// Kind discriminates trace events.
type Kind uint8

const (
	// KindEpoch is the per-epoch system summary: the wired-OR SAT signal
	// and the bytes each class moved during the epoch.
	KindEpoch Kind = iota
	// KindGovernor is one tile's source-regulator state at an epoch
	// boundary: the throttle multiplier M, the step δM, and the
	// installed pacing period.
	KindGovernor
	// KindArbiter is one memory controller's target-arbiter state: the
	// front-end read queue depth, the virtual-deadline slack reference
	// (the last picked deadline), and row-hit-first priority inversions
	// served during the epoch.
	KindArbiter
	// KindDRAM is one controller's service counters over the epoch:
	// reads, writes, row-buffer hits, and busy bus cycles.
	KindDRAM
	// KindFault summarizes fault injection and degraded-signal activity
	// during the epoch (emitted only in epochs where something happened).
	KindFault
	// KindKernel reports scheduling-kernel health: event-kernel wakes
	// that targeted an already-drained dispatch class. The count is
	// structurally zero; the event fires only when it is not, making a
	// broken wake edge loud in traces.
	KindKernel

	numKinds
)

// String returns the kind's wire name.
func (k Kind) String() string {
	switch k {
	case KindEpoch:
		return "epoch"
	case KindGovernor:
		return "governor"
	case KindArbiter:
		return "arbiter"
	case KindDRAM:
		return "dram"
	case KindFault:
		return "fault"
	case KindKernel:
		return "kernel"
	default:
		return "unknown"
	}
}

// ParseKind converts a wire name back to a Kind.
func ParseKind(s string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// Event is one trace record. It is a fixed-size value with no pointers,
// so the ring holds events without per-event allocation and sinks may
// not retain the pointer they are handed. Fields beyond the common
// header are meaningful only for the kinds that document them.
type Event struct {
	Kind  Kind
	Cycle uint64
	Epoch uint64

	// Unit is the tile (KindGovernor) or memory controller (KindArbiter,
	// KindDRAM) the event describes; -1 for system-wide events.
	Unit int

	// Sat is the wired-OR saturation signal (KindEpoch, KindGovernor).
	Sat bool

	// Governor payload.
	M, DM, Period uint64

	// Arbiter payload.
	QueueDepth   int
	LastDeadline uint64
	Inversions   uint64 // priority inversions served this epoch

	// DRAM payload (deltas over the epoch).
	Reads, Writes, RowHits, BusBusy uint64

	// Epoch payload: bytes moved per class during the epoch. Only the
	// first NumClasses entries are meaningful.
	Bytes      [mem.MaxClasses]uint64
	NumClasses int

	// Fault payload (deltas over the epoch).
	Injected, Stale, Decays, Resync uint64
	// Divergence is the current spread (max M − min M) across governors.
	Divergence uint64

	// Kernel payload: the cumulative late-wake count (KindKernel).
	LateWakes uint64
}

// Observer owns the event ring and fans emitted events out to sinks.
// A nil *Observer is valid and free: every method is nil-safe, so the
// simulator holds a plain pointer and pays one comparison per epoch
// when tracing is off.
//
// Observers are single-writer by construction — events are emitted from
// the simulation's sequential phase only — and must not be shared
// between concurrently running systems.
type Observer struct {
	ring  []Event
	next  int
	total uint64
	sinks []Sink
}

// DefaultRingCap is the ring capacity NewObserver uses for cap <= 0.
const DefaultRingCap = 1024

// NewObserver builds an observer retaining the last ringCap events
// (DefaultRingCap if ringCap <= 0) and forwarding every event to the
// given sinks in order.
func NewObserver(ringCap int, sinks ...Sink) *Observer {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Observer{ring: make([]Event, ringCap), sinks: sinks}
}

// Enabled reports whether the observer is live. It is the probe guard:
// callers skip building events entirely when it returns false.
func (o *Observer) Enabled() bool { return o != nil }

// Emit records one event into the ring and forwards it to every sink.
// Nil-safe; sinks must not retain e past the call.
func (o *Observer) Emit(e *Event) {
	if o == nil {
		return
	}
	o.ring[o.next] = *e
	o.next++
	if o.next == len(o.ring) {
		o.next = 0
	}
	o.total++
	for _, s := range o.sinks {
		s.Emit(e)
	}
}

// Total returns how many events have been emitted over the observer's
// lifetime (including any that have since rotated out of the ring).
func (o *Observer) Total() uint64 {
	if o == nil {
		return 0
	}
	return o.total
}

// Events returns the retained events, oldest first.
func (o *Observer) Events() []Event {
	if o == nil {
		return nil
	}
	n := len(o.ring)
	if o.total < uint64(n) {
		out := make([]Event, o.next)
		copy(out, o.ring[:o.next])
		return out
	}
	out := make([]Event, 0, n)
	out = append(out, o.ring[o.next:]...)
	out = append(out, o.ring[:o.next]...)
	return out
}

// Flush flushes every sink, returning the first error.
func (o *Observer) Flush() error {
	if o == nil {
		return nil
	}
	var first error
	for _, s := range o.sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
