package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"pabst/internal/mem"
)

func TestHistBasics(t *testing.T) {
	var h Hist
	for _, v := range []uint64{1, 2, 3, 4, 100} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if got := h.Mean(); got != 22 {
		t.Fatalf("Mean = %g, want 22", got)
	}
}

func TestHistEmptyPercentile(t *testing.T) {
	var h Hist
	if h.Percentile(99) != 0 || h.Mean() != 0 {
		t.Fatal("empty hist should report zeros")
	}
}

func TestHistPercentileAccuracy(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Hist
		vals := make([]uint64, len(raw))
		for i, r := range raw {
			vals[i] = uint64(r)
			h.Add(uint64(r))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, p := range []float64{50, 90, 99} {
			rank := int(math.Ceil(p/100*float64(len(vals)))) - 1
			if rank < 0 {
				rank = 0
			}
			exact := vals[rank]
			got := h.Percentile(p)
			// Relative error bounded by the sub-bucket resolution.
			lo := float64(exact) * (1 - 1.0/16)
			hi := float64(exact)*(1+1.0/16) + 1
			if float64(got) < lo-1 || float64(got) > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistPercentileMonotone(t *testing.T) {
	var h Hist
	for i := uint64(1); i <= 10000; i++ {
		h.Add(i * 7 % 9973)
	}
	prev := uint64(0)
	for p := 1.0; p <= 100; p++ {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%g: %d < %d", p, v, prev)
		}
		prev = v
	}
}

func TestHistMerge(t *testing.T) {
	var a, b Hist
	for i := uint64(0); i < 100; i++ {
		a.Add(i)
		b.Add(i + 1000)
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged count %d", a.Count())
	}
	if a.Min() != 0 || a.Max() != 1099 {
		t.Fatalf("merged min/max %d/%d", a.Min(), a.Max())
	}
	var empty Hist
	empty.Merge(&a)
	if empty.Count() != 200 || empty.Min() != 0 {
		t.Fatal("merge into empty hist broken")
	}
}

func TestHistBucketRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 15, 16, 17, 255, 1 << 20, 1<<40 + 12345} {
		b := histBucket(v)
		low := histBucketLow(b)
		if low > v {
			t.Fatalf("bucket low %d exceeds value %d", low, v)
		}
		if histBucket(low) != b {
			t.Fatalf("bucket low %d maps to bucket %d, want %d", low, histBucket(low), b)
		}
	}
}

func TestSeriesDiffing(t *testing.T) {
	s := NewSeries(100)
	var cum [mem.MaxClasses]uint64
	cum[0], cum[1] = 640, 320
	s.Observe(100, &cum)
	cum[0], cum[1] = 1280, 320
	s.Observe(200, &cum)
	if s.BytesPerCycle(0, 0) != 6.4 || s.BytesPerCycle(0, 1) != 3.2 {
		t.Fatalf("window 0 rates %g/%g", s.BytesPerCycle(0, 0), s.BytesPerCycle(0, 1))
	}
	if s.BytesPerCycle(1, 1) != 0 {
		t.Fatal("idle class shows bandwidth")
	}
	if got := s.ShareOf(0, 0); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("ShareOf = %g", got)
	}
	if s.TotalBytes(0) != 1280 {
		t.Fatalf("TotalBytes = %d", s.TotalBytes(0))
	}
}

func TestSeriesMeanShare(t *testing.T) {
	s := NewSeries(10)
	var cum [mem.MaxClasses]uint64
	for i := 0; i < 4; i++ {
		cum[0] += 30
		cum[1] += 10
		s.Observe(uint64(i*10), &cum)
	}
	if got := s.MeanShare(0, 4, 0); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("MeanShare = %g, want 0.75", got)
	}
}

func TestSeriesIdleWindowShareZero(t *testing.T) {
	s := NewSeries(10)
	var cum [mem.MaxClasses]uint64
	s.Observe(10, &cum)
	if s.ShareOf(0, 3) != 0 {
		t.Fatal("idle window should have zero share")
	}
}

func TestSeriesBadRangePanics(t *testing.T) {
	s := NewSeries(10)
	defer func() {
		if recover() == nil {
			t.Fatal("bad range accepted")
		}
	}()
	s.MeanShare(0, 1, 0)
}

func TestHistSub(t *testing.T) {
	// A baseline snapshot then more samples: Sub must leave exactly the
	// post-snapshot distribution.
	var h, base Hist
	for i := uint64(1); i <= 100; i++ {
		h.Add(i)
		base.Add(i)
	}
	var want Hist
	for i := uint64(1000); i < 1200; i++ {
		h.Add(i)
		want.Add(i)
	}
	h.Sub(&base)
	if h.Count() != want.Count() {
		t.Fatalf("Count = %d, want %d", h.Count(), want.Count())
	}
	if h.Mean() != want.Mean() {
		t.Fatalf("Mean = %g, want %g", h.Mean(), want.Mean())
	}
	for _, p := range []float64{50, 90, 99} {
		// Interior percentiles come from the same surviving buckets; the
		// re-derived min/max only affect the outermost clamps.
		if got, w := h.Percentile(p), want.Percentile(p); got != w {
			t.Errorf("P%.0f = %d, want %d", p, got, w)
		}
	}
	if h.Min() > want.Min() || h.Max() > want.Max() {
		t.Errorf("re-derived min/max %d/%d exceed true %d/%d", h.Min(), h.Max(), want.Min(), want.Max())
	}

	// Subtracting an identical snapshot empties the window.
	var a, b Hist
	for i := uint64(0); i < 50; i++ {
		a.Add(i)
		b.Add(i)
	}
	a.Sub(&b)
	if a.Count() != 0 || a.Percentile(99) != 0 {
		t.Errorf("self-Sub left count=%d p99=%d", a.Count(), a.Percentile(99))
	}
}
