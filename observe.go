package pabst

import (
	"io"

	"pabst/internal/obs"
	"pabst/internal/soc"
)

// Snapshot is a coherent point-in-time view of a system's observable
// state; see System.Snapshot.
type Snapshot = soc.Snapshot

// ClassSnapshot, TileSnapshot, GovernorSnapshot, and MCSnapshot are the
// per-facet slices of a Snapshot.
type (
	ClassSnapshot    = soc.ClassSnapshot
	TileSnapshot     = soc.TileSnapshot
	GovernorSnapshot = soc.GovernorSnapshot
	MCSnapshot       = soc.MCSnapshot
)

// Observer owns the trace-event ring and fans events out to sinks.
// Build one with NewObserver and arm it via WithObserver; events are
// emitted from the epoch hook in a fixed order, so traces are
// byte-identical run to run and across kernels. A nil Observer is valid
// and free.
type Observer = obs.Observer

// Event is one trace record; EventKind discriminates it.
type (
	Event     = obs.Event
	EventKind = obs.Kind
)

// Trace event kinds.
const (
	// KindEpoch is the per-epoch system summary (SAT, per-class bytes).
	KindEpoch = obs.KindEpoch
	// KindGovernor is one tile's regulator state (M, δM, period).
	KindGovernor = obs.KindGovernor
	// KindArbiter is one controller's EDF-arbiter state (queue depth,
	// deadline slack reference, priority inversions served).
	KindArbiter = obs.KindArbiter
	// KindDRAM is one controller's per-epoch service deltas.
	KindDRAM = obs.KindDRAM
	// KindFault summarizes fault injection and degraded-signal activity.
	KindFault = obs.KindFault
)

// ParseEventKind converts a wire name ("epoch", "governor", "arbiter",
// "dram", "fault") back to an EventKind.
func ParseEventKind(s string) (EventKind, bool) { return obs.ParseKind(s) }

// Sink consumes trace events; see NewJSONLSink, NewCSVSink, NewFilterSink.
type Sink = obs.Sink

// NewObserver builds an observer retaining the last ringCap events
// (obs.DefaultRingCap if ringCap <= 0) and forwarding each to sinks.
func NewObserver(ringCap int, sinks ...Sink) *Observer { return obs.NewObserver(ringCap, sinks...) }

// NewJSONLSink streams events as deterministic JSON lines.
func NewJSONLSink(w io.Writer) Sink { return obs.NewJSONLSink(w) }

// NewCSVSink streams events as one flat CSV schema.
func NewCSVSink(w io.Writer) Sink { return obs.NewCSVSink(w) }

// NewFilterSink forwards to inner only the events keep accepts.
func NewFilterSink(inner Sink, keep func(*Event) bool) Sink { return obs.NewFilterSink(inner, keep) }

// Convergence summarizes a regulated series' dynamics: settling point,
// overshoot, and steady-state ripple/mean.
type Convergence = obs.Convergence

// AnalyzeConvergence measures how samples settle onto target: a sample
// is in-band when |sample − target| <= tol, and the series settles at
// the start of the first run of hold consecutive in-band samples. The
// (target 0.7, tol 0.1, hold 10) instance is the Figure 5 rule.
func AnalyzeConvergence(samples []float64, target, tol float64, hold int) Convergence {
	return obs.Analyze(samples, target, tol, hold)
}

// Observer returns the observer armed via WithObserver (nil when
// tracing is off).
func (s *System) Observer() *Observer { return s.inner.Observer() }
