package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
)

// NumBuckets is the number of histogram buckets. Bucket i holds the
// non-negative int64 values of binary length i: bucket 0 holds exactly
// {0}, bucket 1 holds {1}, and bucket i ≥ 2 holds [2^(i−1), 2^i − 1].
// Boundaries are therefore powers of two, every value maps to a bucket
// in O(1) with no search, and the relative quantization error is at
// most 2×. Sixty-four buckets cover the full int64 range (MaxInt64 has
// binary length 63), which spans both nanosecond latencies (bucket 31 ≈
// 1–2 s) and per-query work counts.
const NumBuckets = 64

// Histogram is a fixed-bucket log-spaced histogram over non-negative
// int64 observations — query latencies in nanoseconds, kernel
// evaluations per query, tree nodes visited. The zero value is ready to
// use. Observe is two atomic adds and no allocation, so histograms sit
// directly on the query hot path; Snapshot may be taken concurrently
// with writers (individual buckets are never torn, though a snapshot
// racing an Observe can miss its increment).
type Histogram struct {
	counts [NumBuckets]atomic.Int64
	sum    atomic.Int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Load()
	return s
}

// reset zeroes every bucket.
func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
}

// BucketBounds returns the inclusive value range [lo, hi] covered by
// bucket i.
func BucketBounds(i int) (lo, hi int64) {
	switch {
	case i <= 0:
		return 0, 0
	case i == 1:
		return 1, 1
	case i >= NumBuckets-1:
		return 1 << (NumBuckets - 2), math.MaxInt64
	}
	lo = 1 << (i - 1)
	return lo, 2*lo - 1
}

// HistogramSnapshot is an immutable copy of a Histogram, the unit the
// snapshot/exposition layer works with.
type HistogramSnapshot struct {
	Counts [NumBuckets]int64
	Sum    int64
}

// Count returns the total number of observations.
func (s HistogramSnapshot) Count() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Mean returns the average observed value, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return float64(s.Sum) / float64(n)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by locating the bucket
// containing the target rank and interpolating linearly inside it. The
// estimate is exact for q's bucket boundary and within the bucket's 2×
// width otherwise. Returns 0 with no observations.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total-1)
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) > rank {
			lo, hi := BucketBounds(i)
			within := (rank - float64(cum)) / float64(c)
			return float64(lo) + within*float64(hi-lo)
		}
		cum += c
	}
	// Unreachable with a consistent snapshot; fall back to the top
	// occupied bucket's upper bound.
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Counts[i] > 0 {
			_, hi := BucketBounds(i)
			return float64(hi)
		}
	}
	return 0
}

// Max returns the upper bound of the highest occupied bucket — a ≤2×
// overestimate of the true maximum. Returns 0 with no observations.
func (s HistogramSnapshot) Max() int64 {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Counts[i] > 0 {
			_, hi := BucketBounds(i)
			return hi
		}
	}
	return 0
}

// summary renders one line of percentiles using the given value
// formatter (durations for latency, plain counts for work).
func (s HistogramSnapshot) summary(format func(float64) string) string {
	if s.Count() == 0 {
		return "no observations"
	}
	return fmt.Sprintf("n=%d mean=%s p50=%s p90=%s p99=%s max≤%s",
		s.Count(), format(s.Mean()),
		format(s.Quantile(0.50)), format(s.Quantile(0.90)),
		format(s.Quantile(0.99)), format(float64(s.Max())))
}

// writeExposition emits the snapshot in the plain-text exposition format
// under the given metric name: cumulative `<name>_bucket{le="..."}`
// lines (upper bounds inclusive, Prometheus-style), then `<name>_sum`
// and `<name>_count`. Empty buckets above the highest occupied one are
// collapsed into the terminal le="+Inf" line.
func (s HistogramSnapshot) writeExposition(b *strings.Builder, name string) {
	top := -1
	for i, c := range s.Counts {
		if c > 0 {
			top = i
		}
	}
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	var cum int64
	for i := 0; i <= top; i++ {
		cum += s.Counts[i]
		_, hi := BucketBounds(i)
		fmt.Fprintf(b, "%s_bucket{le=\"%d\"} %d\n", name, hi, cum)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %d\n", name, s.Sum)
	fmt.Fprintf(b, "%s_count %d\n", name, cum)
}
