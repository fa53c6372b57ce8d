package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// histSubBits gives 2^histSubBits sub-buckets per power of two, bounding
// relative quantile error to ~1/2^histSubBits.
const histSubBits = 4

const histBuckets = 64 * (1 << histSubBits)

// Hist is a log-scaled histogram of non-negative integer samples
// (cycles, nanoseconds, ...). The zero value is ready to use. Its
// buckets grow to the highest one ever recorded, so a histogram of
// cycle latencies holds a few hundred words, not all histBuckets.
//
// A copied Hist shares its buckets with the original: Add, Merge or Sub
// on either copy may change the other's distribution. Build a private
// histogram with Merge into a zero Hist instead of copying one.
//
// Hist is single-writer: it takes no locks, so concurrent Add or Merge
// calls on one Hist are a data race. The concurrent-sweep pattern
// (exp.ForEach) is for each simulation to fill its own private Hist and
// for the caller to Merge them after the pool joins — Merge reads
// `other` without synchronization, so `other`'s writer must have
// finished (a pool join or channel receive both establish that).
type Hist struct {
	buckets []uint64 // a power of two long, covering the highest bucket recorded
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

func histBucket(v uint64) int {
	if v < (1 << histSubBits) {
		return int(v)
	}
	exp := bits.Len64(v) - 1
	sub := (v >> (uint(exp) - histSubBits)) & ((1 << histSubBits) - 1)
	return (exp-histSubBits+1)<<histSubBits + int(sub)
}

// histBucketLow returns the smallest value mapping to bucket b.
func histBucketLow(b int) uint64 {
	if b < (1 << histSubBits) {
		return uint64(b)
	}
	exp := b>>histSubBits + histSubBits - 1
	sub := uint64(b & ((1 << histSubBits) - 1))
	return (1 << uint(exp)) | sub<<(uint(exp)-histSubBits)
}

// grow extends the buckets to hold at least n, rounded up to a power
// of two (at least one octave of sub-buckets), so a histogram allocates
// at most seven times in its life and a latency tail that creeps past
// its octave does not allocate.
func (h *Hist) grow(n int) {
	if n <= len(h.buckets) {
		return
	}
	n = max(1<<histSubBits, 1<<bits.Len(uint(n-1)))
	b := make([]uint64, n)
	copy(b, h.buckets)
	h.buckets = b
}

// Add records one sample.
func (h *Hist) Add(v uint64) {
	b := histBucket(v)
	h.grow(b + 1)
	h.buckets[b]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.count }

// Mean returns the exact sample mean, or 0 with no samples.
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest recorded sample.
func (h *Hist) Min() uint64 { return h.min }

// Max returns the largest recorded sample.
func (h *Hist) Max() uint64 { return h.max }

// Percentile returns an upper bound on the p-th percentile (0 < p <= 100)
// with relative error bounded by the sub-bucket resolution (~6%).
func (h *Hist) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for b, n := range h.buckets {
		seen += n
		if seen >= rank {
			low := histBucketLow(b)
			if low > h.max {
				return h.max
			}
			return low
		}
	}
	return h.max
}

// Merge adds every sample of other into h.
func (h *Hist) Merge(other *Hist) {
	if other.count == 0 {
		return
	}
	h.grow(len(other.buckets))
	for b, n := range other.buckets {
		h.buckets[b] += n
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Sub removes a baseline snapshot from h, leaving the distribution of
// the samples recorded after the snapshot was taken — the measurement-
// window delta. base must be an earlier snapshot of the same sample
// stream (every base bucket a prefix of h's). The exact min/max of the
// surviving samples are unrecoverable from bucket counts, so both are
// re-derived from bucket bounds (lower bounds; Percentile's edge clamps
// become approximate, the interior rank scan is unaffected).
func (h *Hist) Sub(base *Hist) {
	h.grow(len(base.buckets))
	for b, n := range base.buckets {
		h.buckets[b] -= n
	}
	h.count -= base.count
	h.sum -= base.sum
	h.min, h.max = 0, 0
	first := true
	for b, n := range h.buckets {
		if n == 0 {
			continue
		}
		if first {
			h.min = histBucketLow(b)
			first = false
		}
		h.max = histBucketLow(b)
	}
}

// String summarizes the distribution.
func (h *Hist) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d",
		h.count, h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.max)
}
