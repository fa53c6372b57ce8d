package stats

import (
	"bytes"
	"math/rand"
	"testing"

	"pabst/internal/ckpt"
)

// refHist is the fixed-array histogram Hist grew out of: every bucket
// present from the start. The tests compare Hist against it bucket for
// bucket, so a short bucket slice must read as the array's zero tail.
type refHist struct {
	buckets [histBuckets]uint64
}

func (r *refHist) add(v uint64) { r.buckets[histBucket(v)]++ }

// sameBuckets reports whether h holds exactly r's buckets: equal on the
// slice, zero beyond it.
func sameBuckets(t *testing.T, what string, h *Hist, r *refHist) {
	t.Helper()
	for b, want := range r.buckets {
		var got uint64
		if b < len(h.buckets) {
			got = h.buckets[b]
		}
		if got != want {
			t.Fatalf("%s: bucket %d = %d, want %d", what, b, got, want)
		}
	}
}

// fill adds every v to both h and r.
func fill(h *Hist, r *refHist, vs ...uint64) {
	for _, v := range vs {
		h.Add(v)
		r.add(v)
	}
}

func TestHistZeroValue(t *testing.T) {
	var h, other Hist
	if len(h.buckets) != 0 {
		t.Fatalf("zero Hist holds %d buckets, want none", len(h.buckets))
	}
	h.Merge(&other)
	h.Sub(&other)
	if h.Count() != 0 || h.Percentile(50) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("zero Hist reports %v", &h)
	}
	h.Add(7)
	if h.Count() != 1 || h.Percentile(50) != 7 || h.Min() != 7 || h.Max() != 7 {
		t.Fatalf("zero Hist after one Add: %v", &h)
	}
}

func TestHistGrowsToHighestBucket(t *testing.T) {
	var h Hist
	var r refHist
	prev := 0
	for _, v := range []uint64{3, 15, 16, 100, 90, 1 << 12, 5, 1<<40 + 3, 1 << 20, ^uint64(0)} {
		fill(&h, &r, v)
		n := len(h.buckets)
		if n <= histBucket(v) || n < prev {
			t.Fatalf("after Add(%d): %d buckets, want > %d and >= %d", v, n, histBucket(v), prev)
		}
		if n%(1<<histSubBits) != 0 || n > histBuckets {
			t.Fatalf("after Add(%d): %d buckets, want whole octaves within %d", v, n, histBuckets)
		}
		prev = n
		sameBuckets(t, "growth", &h, &r)
	}
	if h.Max() != ^uint64(0) || h.Min() != 3 || h.Count() != 10 {
		t.Fatalf("growth lost a sample: %v", &h)
	}
}

// TestHistBucketBytes gates a histogram's footprint: latency samples up
// to 2^16 cycles keep the buckets they reach (209 words), not the full
// log range of a uint64 (8 KB).
func TestHistBucketBytes(t *testing.T) {
	var h Hist
	for v := uint64(0); v <= 1<<16; v += 97 {
		h.Add(v)
	}
	h.Add(1 << 16)
	if got := cap(h.buckets) * 8; got > 2048 {
		t.Fatalf("a Hist of samples up to 2^16 keeps %d B of buckets, want <= 2048", got)
	}
}

func TestHistMergeLongerAndShorter(t *testing.T) {
	var short, long Hist
	var r refHist
	fill(&short, &r, 1, 2, 3, 9, 12)
	fill(&long, &r, 40_000, 700, 3, 1<<30)

	// Longer into shorter, and shorter into longer, each into a private
	// copy built by Merge.
	var a, b Hist
	a.Merge(&short)
	a.Merge(&long)
	b.Merge(&long)
	b.Merge(&short)
	for _, h := range []*Hist{&a, &b} {
		sameBuckets(t, "merge", h, &r)
		if h.Count() != 9 || h.Min() != 1 || h.Max() != 1<<30 {
			t.Fatalf("merge: %v", h)
		}
	}
	if a.Mean() != b.Mean() {
		t.Fatalf("merge order changed the mean: %g vs %g", a.Mean(), b.Mean())
	}
	for p := 1.0; p <= 100; p++ {
		if a.Percentile(p) != b.Percentile(p) {
			t.Fatalf("merge order changed p%g: %d vs %d", p, a.Percentile(p), b.Percentile(p))
		}
	}
	// The sources are untouched: Merge reads other, never aliases it.
	a.Add(5)
	if short.Count() != 5 || long.Count() != 4 || len(short.buckets) >= len(long.buckets) {
		t.Fatalf("merge changed its sources: short %v, long %v", &short, &long)
	}
}

func TestHistSubShorterBase(t *testing.T) {
	var h, base, later Hist
	var r refHist
	for _, v := range []uint64{4, 8, 11} {
		h.Add(v)
		base.Add(v)
	}
	// The window's samples reach far past the base's last bucket.
	for _, v := range []uint64{6, 300, 5_000, 1 << 22} {
		h.Add(v)
		later.Add(v)
		r.add(v)
	}
	if len(base.buckets) >= len(h.buckets) {
		t.Fatalf("base has %d buckets, h %d: want a shorter base", len(base.buckets), len(h.buckets))
	}
	h.Sub(&base)
	sameBuckets(t, "sub", &h, &r)
	if h.Count() != later.Count() || h.Mean() != later.Mean() {
		t.Fatalf("sub: %v, want %v", &h, &later)
	}
	if h.Min() != histBucketLow(histBucket(6)) || h.Max() != histBucketLow(histBucket(1<<22)) {
		t.Fatalf("sub: min/max %d/%d, want the bounds of buckets %d and %d", h.Min(), h.Max(), histBucket(6), histBucket(1<<22))
	}
	for _, p := range []float64{25, 50, 75} {
		if h.Percentile(p) != later.Percentile(p) {
			t.Fatalf("sub: p%g = %d, want %d", p, h.Percentile(p), later.Percentile(p))
		}
	}
}

// TestHistPercentileAfterGrowth: a histogram that grew sample by sample
// answers every percentile as one that reached its last bucket first.
func TestHistPercentileAfterGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]uint64, 5000)
	for i := range vs {
		vs[i] = uint64(rng.Int63n(int64(1) << uint(1+i*30/len(vs))))
	}
	var rising, sized Hist
	sized.Add(^uint64(0)) // reaches the last bucket at once
	for _, v := range vs {
		rising.Add(v)
		sized.Add(v)
	}
	rising.Add(^uint64(0))
	for p := 0.5; p < 100; p += 0.5 {
		if rising.Percentile(p) != sized.Percentile(p) {
			t.Fatalf("p%g: grown %d, pre-sized %d", p, rising.Percentile(p), sized.Percentile(p))
		}
	}
}

// TestHistCkptRoundTrip stores a sparse histogram and loads it into a
// zero Hist and into one with more buckets than the image: both restore
// the distribution and store the same bytes again.
func TestHistCkptRoundTrip(t *testing.T) {
	var h Hist
	var r refHist
	fill(&h, &r, 0, 17, 17, 400, 1<<33)
	raw, err := ckpt.Encode(ckpt.Header{}, &h)
	if err != nil {
		t.Fatal(err)
	}
	var wide Hist
	wide.Add(^uint64(0))
	for name, dst := range map[string]*Hist{"zero": {}, "wider": &wide} {
		c, err := ckpt.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Load(dst); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameBuckets(t, name, dst, &r)
		if dst.String() != h.String() || dst.Min() != h.Min() {
			t.Fatalf("%s: restored %v, want %v", name, dst, &h)
		}
		again, err := ckpt.Encode(ckpt.Header{}, dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("%s: re-stored image differs", name)
		}
	}
}

func BenchmarkHistAdd(b *testing.B) {
	var h Hist
	rng := uint64(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		h.Add(rng >> 52) // cycle-scale latencies, 0..4095
	}
}
