package stats

import (
	"fmt"

	"pabst/internal/mem"
)

// Sample is one window of a bandwidth time series: bytes moved per class
// during the window ending at Cycle.
type Sample struct {
	Cycle uint64
	Bytes [mem.MaxClasses]uint64
}

// Series collects a windowed per-class bandwidth time series by diffing a
// cumulative byte counter at fixed intervals. It backs the Figure 5/6/8
// plots.
//
// Series is single-writer: Observe appends without locking, so a Series
// belongs to exactly one running simulation (soc.System samples it from
// a kernel hook). Concurrent sweeps (exp.ForEach) are safe because every
// simulation owns a private Series; read one only after its run has
// finished.
type Series struct {
	Window  uint64
	Samples []Sample

	last [mem.MaxClasses]uint64
}

// NewSeries creates a series sampled every window cycles.
func NewSeries(window uint64) *Series {
	if window == 0 {
		panic("stats: zero series window")
	}
	return &Series{Window: window}
}

// Observe ingests the current cumulative per-class byte counters at cycle
// now, appending the delta since the previous observation.
func (s *Series) Observe(now uint64, cumulative *[mem.MaxClasses]uint64) {
	var smp Sample
	smp.Cycle = now
	for i := range cumulative {
		smp.Bytes[i] = cumulative[i] - s.last[i]
		s.last[i] = cumulative[i]
	}
	s.Samples = append(s.Samples, smp)
}

// BytesPerCycle returns class bandwidth in bytes/cycle for sample i.
func (s *Series) BytesPerCycle(i int, class mem.ClassID) float64 {
	return float64(s.Samples[i].Bytes[class]) / float64(s.Window)
}

// ShareOf returns the class's fraction of all bytes moved in sample i,
// or 0 for an idle window.
func (s *Series) ShareOf(i int, class mem.ClassID) float64 {
	var total uint64
	for _, b := range s.Samples[i].Bytes {
		total += b
	}
	if total == 0 {
		return 0
	}
	return float64(s.Samples[i].Bytes[class]) / float64(total)
}

// MeanShare averages ShareOf over samples [from, to).
func (s *Series) MeanShare(from, to int, class mem.ClassID) float64 {
	if from < 0 || to > len(s.Samples) || from >= to {
		panic(fmt.Sprintf("stats: bad sample range [%d,%d) of %d", from, to, len(s.Samples)))
	}
	var sum float64
	for i := from; i < to; i++ {
		sum += s.ShareOf(i, class)
	}
	return sum / float64(to-from)
}

// TotalBytes sums a class's bytes over all samples.
func (s *Series) TotalBytes(class mem.ClassID) uint64 {
	var t uint64
	for _, smp := range s.Samples {
		t += smp.Bytes[class]
	}
	return t
}
