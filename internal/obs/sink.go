package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// Sink consumes trace events. Emit is called from the simulation's
// sequential phase in deterministic order; implementations must not
// retain the event pointer. Flush drains any buffering.
type Sink interface {
	Emit(e *Event)
	Flush() error
}

// JSONLSink renders one JSON object per event. Fields are written in a
// fixed order with only the emitting kind's payload included, so the
// stream is byte-identical across runs (encoding/json map iteration
// never enters the picture).
type JSONLSink struct {
	w   *bufio.Writer
	err error
}

// NewJSONLSink wraps w in a buffered JSONL event stream.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: bufio.NewWriter(w)} }

// Emit implements Sink.
func (s *JSONLSink) Emit(e *Event) {
	if s.err != nil {
		return
	}
	b := s.w
	fmt.Fprintf(b, `{"kind":%q,"cycle":%d,"epoch":%d`, e.Kind.String(), e.Cycle, e.Epoch)
	switch e.Kind {
	case KindEpoch:
		fmt.Fprintf(b, `,"sat":%t,"bytes":[`, e.Sat)
		for c := 0; c < e.NumClasses; c++ {
			if c > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatUint(e.Bytes[c], 10))
		}
		b.WriteByte(']')
	case KindGovernor:
		fmt.Fprintf(b, `,"tile":%d,"sat":%t,"m":%d,"dm":%d,"period":%d`,
			e.Unit, e.Sat, e.M, e.DM, e.Period)
	case KindArbiter:
		fmt.Fprintf(b, `,"mc":%d,"queue_depth":%d,"last_deadline":%d,"inversions":%d`,
			e.Unit, e.QueueDepth, e.LastDeadline, e.Inversions)
	case KindDRAM:
		fmt.Fprintf(b, `,"mc":%d,"reads":%d,"writes":%d,"row_hits":%d,"bus_busy":%d`,
			e.Unit, e.Reads, e.Writes, e.RowHits, e.BusBusy)
	case KindFault:
		fmt.Fprintf(b, `,"injected":%d,"stale":%d,"decays":%d,"resync":%d,"divergence":%d`,
			e.Injected, e.Stale, e.Decays, e.Resync, e.Divergence)
	}
	b.WriteString("}\n")
	if err := b.Flush(); err == nil {
		// Flushing per event keeps partial traces usable; buffering
		// still batches the many small writes of one event.
	} else {
		s.err = err
	}
}

// Flush implements Sink.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// CSVSink renders events as one flat CSV schema covering every kind;
// fields a kind does not define render as 0. The per-class byte vector
// is packed into a single semicolon-joined column so the column set
// does not depend on the class count.
type CSVSink struct {
	w      *bufio.Writer
	err    error
	header bool
}

// NewCSVSink wraps w in a buffered CSV event stream.
func NewCSVSink(w io.Writer) *CSVSink { return &CSVSink{w: bufio.NewWriter(w)} }

// csvHeader is the fixed column set.
const csvHeader = "kind,cycle,epoch,unit,sat,m,dm,period," +
	"queue_depth,last_deadline,inversions," +
	"reads,writes,row_hits,bus_busy," +
	"injected,stale,decays,resync,divergence,bytes\n"

// Emit implements Sink.
func (s *CSVSink) Emit(e *Event) {
	if s.err != nil {
		return
	}
	b := s.w
	if !s.header {
		b.WriteString(csvHeader)
		s.header = true
	}
	sat := 0
	if e.Sat {
		sat = 1
	}
	fmt.Fprintf(b, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,",
		e.Kind.String(), e.Cycle, e.Epoch, e.Unit, sat, e.M, e.DM, e.Period,
		e.QueueDepth, e.LastDeadline, e.Inversions,
		e.Reads, e.Writes, e.RowHits, e.BusBusy,
		e.Injected, e.Stale, e.Decays, e.Resync, e.Divergence)
	for c := 0; c < e.NumClasses; c++ {
		if c > 0 {
			b.WriteByte(';')
		}
		b.WriteString(strconv.FormatUint(e.Bytes[c], 10))
	}
	b.WriteByte('\n')
	s.err = b.Flush()
}

// Flush implements Sink.
func (s *CSVSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// FilterSink forwards only events keep accepts.
type FilterSink struct {
	inner Sink
	keep  func(*Event) bool
}

// NewFilterSink wraps inner with a predicate.
func NewFilterSink(inner Sink, keep func(*Event) bool) *FilterSink {
	return &FilterSink{inner: inner, keep: keep}
}

// Emit implements Sink.
func (f *FilterSink) Emit(e *Event) {
	if f.keep == nil || f.keep(e) {
		f.inner.Emit(e)
	}
}

// Flush implements Sink.
func (f *FilterSink) Flush() error { return f.inner.Flush() }
