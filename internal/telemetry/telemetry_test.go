package telemetry

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the power-of-two bucket scheme: bucket 0 is
// {0}, bucket 1 is {1}, bucket i ≥ 2 is [2^(i−1), 2^i − 1].
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 62, 63}, {math.MaxInt64, 63},
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.v)
		s := h.Snapshot()
		if s.Counts[c.bucket] != 1 {
			t.Errorf("Observe(%d): bucket %d empty, snapshot %v", c.v, c.bucket, s.Counts)
		}
		if got := s.Count(); got != 1 {
			t.Errorf("Observe(%d): Count = %d, want 1", c.v, got)
		}
		lo, hi := BucketBounds(c.bucket)
		if c.v < lo || c.v > hi {
			t.Errorf("BucketBounds(%d) = [%d, %d] does not contain %d", c.bucket, lo, hi, c.v)
		}
	}
}

// TestBucketBoundsContiguous verifies the buckets tile the non-negative
// int64 range with no gaps or overlaps.
func TestBucketBoundsContiguous(t *testing.T) {
	_, prevHi := BucketBounds(0)
	for i := 1; i < NumBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo != prevHi+1 {
			t.Errorf("bucket %d starts at %d, want %d", i, lo, prevHi+1)
		}
		if hi < lo {
			t.Errorf("bucket %d is inverted: [%d, %d]", i, lo, hi)
		}
		prevHi = hi
	}
	if prevHi != math.MaxInt64 {
		t.Errorf("top bucket ends at %d, want MaxInt64", prevHi)
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	s := h.Snapshot()
	if s.Counts[0] != 1 || s.Sum != 0 {
		t.Errorf("Observe(-5): bucket0 = %d sum = %d, want 1, 0", s.Counts[0], s.Sum)
	}
}

func TestHistogramMeanAndQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(100) // all in bucket [64, 127]
	}
	s := h.Snapshot()
	if got := s.Mean(); got != 100 {
		t.Errorf("Mean = %v, want 100", got)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := s.Quantile(q)
		if got < 64 || got > 127 {
			t.Errorf("Quantile(%v) = %v, outside bucket [64, 127]", q, got)
		}
	}
	if s.Quantile(0.9) < s.Quantile(0.1) {
		t.Error("quantiles not monotone")
	}
	if got := s.Max(); got != 127 {
		t.Errorf("Max = %d, want 127 (bucket upper bound)", got)
	}
}

func TestHistogramQuantileAcrossBuckets(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	if got := s.Quantile(0.99); got < 512 {
		t.Errorf("p99 = %v, want inside the bucket holding 1000", got)
	}
	if empty := (HistogramSnapshot{}); empty.Quantile(0.5) != 0 || empty.Mean() != 0 || empty.Max() != 0 {
		t.Error("empty snapshot should report zeros")
	}
}

// TestNopRecorderAllocatesNothing is the satellite guarantee: the
// default recorder adds zero allocations to the hot path.
func TestNopRecorderAllocatesNothing(t *testing.T) {
	var rec Recorder = Nop{}
	sample := QuerySample{Latency: time.Microsecond, PointKernels: 10}
	if got := testing.AllocsPerRun(1000, func() {
		if rec.Enabled() {
			t.Fatal("Nop reported enabled")
		}
		rec.RecordQuery(sample)
		rec.RecordSpan(Span{Name: "x"})
	}); got != 0 {
		t.Errorf("Nop recorder: %v allocs/op, want 0", got)
	}
}

// TestRegistryRecordQueryAllocatesNothing keeps the enabled query path
// allocation-free too — only the span trace may allocate.
func TestRegistryRecordQueryAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	sample := QuerySample{Latency: time.Microsecond, PointKernels: 10, GridChecked: true}
	if got := testing.AllocsPerRun(1000, func() {
		r.RecordQuery(sample)
	}); got != 0 {
		t.Errorf("Registry.RecordQuery: %v allocs/op, want 0", got)
	}
}

func TestRegistryDisabled(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(false)
	r.RecordQuery(QuerySample{Latency: time.Second})
	r.RecordSpan(Span{Name: "ignored"})
	s := r.Snapshot()
	if s.Queries != 0 || len(s.Spans) != 0 || s.LatencyNS.Count() != 0 {
		t.Errorf("disabled registry recorded: %+v", s)
	}
}

func TestRegistrySnapshotAndReset(t *testing.T) {
	r := NewRegistry()
	r.RecordQuery(QuerySample{Latency: 5 * time.Microsecond, PointKernels: 32, BoundKernels: 8, Nodes: 4, GridChecked: true})
	r.RecordQuery(QuerySample{Latency: time.Microsecond, GridChecked: true, GridHit: true})
	r.RecordSpan(Span{Name: "bootstrap/round-01", Duration: time.Millisecond, Kernels: 100, Items: 200})

	s := r.Snapshot()
	if s.Queries != 2 || s.GridHits != 1 || s.GridMisses != 1 {
		t.Errorf("counters: %+v", s)
	}
	if got := s.Kernels.Sum; got != 40 {
		t.Errorf("kernel sum = %d, want 40", got)
	}
	if got := s.LatencyNS.Count(); got != 2 {
		t.Errorf("latency count = %d, want 2", got)
	}
	if len(s.Spans) != 1 || s.Spans[0].Name != "bootstrap/round-01" {
		t.Errorf("spans: %+v", s.Spans)
	}
	if out := s.String(); !strings.Contains(out, "queries 2") || !strings.Contains(out, "bootstrap/round-01") {
		t.Errorf("String missing fields:\n%s", out)
	}

	r.Reset()
	if s := r.Snapshot(); s.Queries != 0 || len(s.Spans) != 0 {
		t.Errorf("Reset left state: %+v", s)
	}
}

func TestRegistrySpanCap(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < maxSpans+10; i++ {
		r.RecordSpan(Span{Name: "s"})
	}
	s := r.Snapshot()
	if len(s.Spans) != maxSpans {
		t.Errorf("spans kept = %d, want %d", len(s.Spans), maxSpans)
	}
	if s.SpansDropped != 10 {
		t.Errorf("SpansDropped = %d, want 10", s.SpansDropped)
	}
}

// TestExposition checks the /metrics rendering: counters, cumulative
// histogram buckets, and the terminal +Inf line.
func TestExposition(t *testing.T) {
	r := NewRegistry()
	r.RecordQuery(QuerySample{Latency: 100 * time.Nanosecond, PointKernels: 3})
	r.RecordQuery(QuerySample{Latency: 200 * time.Nanosecond, PointKernels: 5})
	var b strings.Builder
	r.Snapshot().WriteMetrics(&b)
	out := b.String()
	for _, want := range []string{
		"tkdc_queries_total 2",
		"# TYPE tkdc_query_latency_ns histogram",
		"tkdc_query_latency_ns_count 2",
		"tkdc_query_latency_ns_bucket{le=\"+Inf\"} 2",
		"tkdc_query_kernels_sum 8",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets must be non-decreasing.
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "tkdc_query_latency_ns_bucket") {
			continue
		}
		n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if n < last {
			t.Errorf("bucket counts decreased at %q", line)
		}
		last = n
	}
}

// TestRegistryConcurrent exercises the registry under parallel writers
// and snapshotters; run with -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.RecordQuery(QuerySample{Latency: time.Duration(i), PointKernels: int64(i)})
				if i%100 == 0 {
					r.RecordSpan(Span{Name: "tick"})
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Queries; got != 8*500 {
		t.Errorf("Queries = %d, want %d", got, 8*500)
	}
}
