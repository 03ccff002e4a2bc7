// Package telemetry provides the repo's stdlib-only observability
// primitives: atomic counters, fixed-bucket log-spaced histograms for
// query latency and per-query work, and a phase-trace recorder for
// training. The package has no dependencies on the rest of the stack;
// core, the serving mode, and the CLI all consume it through the
// Recorder interface, so the density-classification hot path pays
// nothing when telemetry is off (the no-op recorder) and two time reads
// plus a handful of atomic adds when it is on.
package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is an atomic monotonic counter. The zero value is ready to
// use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// QuerySample is the telemetry of one classification or density query:
// its wall-clock latency and the work its traversal performed.
type QuerySample struct {
	Latency time.Duration
	// PointKernels and BoundKernels mirror core.QueryStats: kernel
	// evaluations against individual points and against bounding boxes.
	PointKernels int64
	BoundKernels int64
	// Nodes counts k-d tree nodes expanded.
	Nodes int64
	// GridChecked reports whether the hypergrid cache was consulted;
	// GridHit whether it answered the query outright.
	GridChecked bool
	GridHit     bool
}

// Kernels returns total kernel evaluations, point and bound combined.
func (s QuerySample) Kernels() int64 { return s.PointKernels + s.BoundKernels }

// Span names one bounded phase of work — a bootstrap round, a training
// density pass, an index build — with its duration and the work it
// performed. Spans are the unit of the phase-level training trace.
type Span struct {
	Name     string
	Duration time.Duration
	// Kernels counts kernel evaluations spent in the phase (0 for pure
	// index/grid construction phases).
	Kernels int64
	// Items counts the phase's work items: sample rows scored, points
	// indexed.
	Items int64
	// Workers is the goroutine budget the phase ran with (1 when
	// single-threaded, 0 for phases that predate the field or have no
	// fan-out).
	Workers int
}

// String renders the span as one trace line.
func (s Span) String() string {
	line := fmt.Sprintf("%-22s %12v  kernels=%-10d items=%d", s.Name, s.Duration.Round(time.Microsecond), s.Kernels, s.Items)
	if s.Workers > 0 {
		line += fmt.Sprintf("  workers=%d", s.Workers)
	}
	return line
}

// Recorder receives telemetry from the classification stack. Hot-path
// call sites gate every sample behind Enabled(), so implementations
// must keep Enabled cheap (an atomic load); RecordQuery runs on the
// query path and must not block.
type Recorder interface {
	// Enabled reports whether the recorder wants samples. Call sites
	// skip timing and sample construction entirely when it is false.
	Enabled() bool
	// RecordQuery records one query's latency and work.
	RecordQuery(QuerySample)
	// RecordSpan records one named phase of batch work.
	RecordSpan(Span)
	// TraceEnabled reports whether per-query flight records are wanted.
	// The query path asks it once per query, after Enabled, so it must
	// stay as cheap: with tracing off a query performs that check and
	// allocates nothing.
	TraceEnabled() bool
	// StartTrace hands out a trace to populate.
	StartTrace() *QueryTrace
	// FinishTrace takes ownership of a populated trace: the caller must
	// not touch it afterwards, since it may be retained, rendered, and
	// served concurrently.
	FinishTrace(*QueryTrace)
}

// Nop is the default recorder: permanently disabled, records nothing,
// allocates nothing.
type Nop struct{}

// Enabled always returns false.
func (Nop) Enabled() bool { return false }

// RecordQuery discards the sample.
func (Nop) RecordQuery(QuerySample) {}

// RecordSpan discards the span.
func (Nop) RecordSpan(Span) {}

// TraceEnabled always returns false.
func (Nop) TraceEnabled() bool { return false }

// StartTrace returns nil.
func (Nop) StartTrace() *QueryTrace { return nil }

// FinishTrace discards the trace.
func (Nop) FinishTrace(*QueryTrace) {}

// maxSpans bounds the trace a registry retains; spans beyond it are
// counted in Snapshot.SpansDropped rather than silently lost.
const maxSpans = 4096

// Registry is the standard Recorder: lock-free counters and histograms
// for the query path, a mutex-guarded span list for phase traces. Safe
// for concurrent use. Construct with NewRegistry.
type Registry struct {
	enabled atomic.Bool

	queries    Counter
	gridHits   Counter
	gridMisses Counter

	latencyNS Histogram
	kernels   Histogram
	nodes     Histogram

	// flight, when attached, receives the registry's trace methods: the
	// query path asks TraceEnabled() once per query and only builds a
	// QueryTrace when a recorder is present and switched on.
	flight atomic.Pointer[FlightRecorder]

	mu           sync.Mutex
	spans        []Span
	spansDropped int64
}

// NewRegistry returns an enabled registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.enabled.Store(true)
	return r
}

// Default is the process-wide registry: the CLI's -serve and -stats
// modes record into it, and tkdc.Metrics() snapshots it.
var Default = NewRegistry()

// Enabled reports whether the registry is accepting samples. A nil
// registry never is, so a nil *Registry used as a Recorder means
// telemetry is off.
func (r *Registry) Enabled() bool { return r != nil && r.enabled.Load() }

// SetEnabled toggles sample collection without detaching the recorder.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// AttachFlightRecorder wires a flight recorder into the registry, which
// forwards the Recorder trace methods to it. Pass nil to detach.
func (r *Registry) AttachFlightRecorder(f *FlightRecorder) { r.flight.Store(f) }

// Flight returns the attached flight recorder, or nil.
func (r *Registry) Flight() *FlightRecorder { return r.flight.Load() }

// TraceEnabled reports whether per-query tracing is on: only when the
// registry itself is enabled and an enabled flight recorder is
// attached. Two atomic loads on the hot path.
func (r *Registry) TraceEnabled() bool {
	if !r.Enabled() {
		return false
	}
	f := r.flight.Load()
	return f != nil && f.Enabled()
}

// StartTrace delegates to the attached flight recorder (nil when none
// is attached — callers gate on TraceEnabled).
func (r *Registry) StartTrace() *QueryTrace {
	if f := r.flight.Load(); f != nil {
		return f.StartTrace()
	}
	return nil
}

// FinishTrace hands the trace to the attached flight recorder.
func (r *Registry) FinishTrace(t *QueryTrace) {
	if f := r.flight.Load(); f != nil {
		f.FinishTrace(t)
	}
}

// RecordQuery folds one query into the counters and histograms.
func (r *Registry) RecordQuery(s QuerySample) {
	if !r.Enabled() {
		return
	}
	r.queries.Inc()
	if s.GridChecked {
		if s.GridHit {
			r.gridHits.Inc()
		} else {
			r.gridMisses.Inc()
		}
	}
	r.latencyNS.Observe(int64(s.Latency))
	r.kernels.Observe(s.Kernels())
	r.nodes.Observe(s.Nodes)
}

// RecordSpan appends one phase span to the trace, keeping at most
// maxSpans.
func (r *Registry) RecordSpan(s Span) {
	if !r.Enabled() {
		return
	}
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.spansDropped++
	}
	r.mu.Unlock()
}

// Snapshot copies the registry's current state. It may be taken while
// queries are in flight; histograms and counters are read atomically
// per field. A nil registry has recorded nothing.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Queries:    r.queries.Load(),
		GridHits:   r.gridHits.Load(),
		GridMisses: r.gridMisses.Load(),

		LatencyNS: r.latencyNS.Snapshot(),
		Kernels:   r.kernels.Snapshot(),
		Nodes:     r.nodes.Snapshot(),
	}
	r.mu.Lock()
	s.Spans = append([]Span(nil), r.spans...)
	s.SpansDropped = r.spansDropped
	r.mu.Unlock()
	return s
}

// Reset zeroes every counter, histogram, and the span trace.
func (r *Registry) Reset() {
	r.queries.v.Store(0)
	r.gridHits.v.Store(0)
	r.gridMisses.v.Store(0)
	r.latencyNS.reset()
	r.kernels.reset()
	r.nodes.reset()
	r.mu.Lock()
	r.spans = nil
	r.spansDropped = 0
	r.mu.Unlock()
}

// Snapshot is a coherent copy of a registry: per-query histograms for
// latency and work, grid cache counters, and the phase trace.
type Snapshot struct {
	Queries    int64
	GridHits   int64
	GridMisses int64

	// LatencyNS holds query latencies in nanoseconds; Kernels and Nodes
	// hold kernel evaluations and tree nodes expanded per query.
	LatencyNS HistogramSnapshot
	Kernels   HistogramSnapshot
	Nodes     HistogramSnapshot

	Spans        []Span
	SpansDropped int64
}

// String renders the snapshot as a human-readable summary: query
// counters, latency and work percentiles, and the phase trace.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "queries %d (grid hits %d, misses %d)\n", s.Queries, s.GridHits, s.GridMisses)
	dur := func(v float64) string { return time.Duration(v).Round(10 * time.Nanosecond).String() }
	cnt := func(v float64) string { return fmt.Sprintf("%.0f", v) }
	fmt.Fprintf(&b, "query latency:  %s\n", s.LatencyNS.summary(dur))
	fmt.Fprintf(&b, "kernels/query:  %s\n", s.Kernels.summary(cnt))
	fmt.Fprintf(&b, "nodes/query:    %s\n", s.Nodes.summary(cnt))
	if len(s.Spans) > 0 {
		b.WriteString("phases:\n")
		for _, sp := range s.Spans {
			fmt.Fprintf(&b, "  %s\n", sp)
		}
	}
	if s.SpansDropped > 0 {
		fmt.Fprintf(&b, "  (+%d spans dropped)\n", s.SpansDropped)
	}
	return b.String()
}

// WriteMetrics renders the snapshot in the plain-text exposition format
// served at /metrics: `tkdc_*` counters and cumulative-bucket
// histograms.
func (s Snapshot) WriteMetrics(b *strings.Builder) {
	fmt.Fprintf(b, "# TYPE tkdc_queries_total counter\ntkdc_queries_total %d\n", s.Queries)
	fmt.Fprintf(b, "# TYPE tkdc_grid_hits_total counter\ntkdc_grid_hits_total %d\n", s.GridHits)
	fmt.Fprintf(b, "# TYPE tkdc_grid_misses_total counter\ntkdc_grid_misses_total %d\n", s.GridMisses)
	s.LatencyNS.writeExposition(b, "tkdc_query_latency_ns")
	s.Kernels.writeExposition(b, "tkdc_query_kernels")
	s.Nodes.writeExposition(b, "tkdc_query_nodes")
}
