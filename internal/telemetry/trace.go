package telemetry

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceStage is one typed step of a query's execution — the unit of the
// per-query flight record. Every backend populates the fields that are
// meaningful for it and leaves the rest zero (omitted from JSON):
//
//   - the tree backend emits one "tree/refine" stage with Nodes (heap
//     pops), Pushes, Depth (deepest arena node touched), the kernel
//     split, and the bounds at stop time;
//   - the sampling backend emits a "near" stage (descent Depth, interior
//     Budget consumed, exact Points) and one "far/round-N" stage per
//     adaptive doubling with the running sample count and
//     empirical-Bernstein band (Lower, Upper, Band);
//   - the grid cache answers queries outright with a stage-free trace
//     (Backend "grid", GridHit set).
type TraceStage struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
	// Nodes counts arena nodes popped during the stage; Pushes counts
	// heap pushes (tree backend frontier growth).
	Nodes  int64 `json:"nodes,omitempty"`
	Pushes int64 `json:"pushes,omitempty"`
	// Points and Bounds are kernel evaluations against points and
	// bounding boxes performed in the stage.
	Points int64 `json:"point_kernels,omitempty"`
	Bounds int64 `json:"bound_kernels,omitempty"`
	// Depth is the deepest tree level the stage reached (1 = root).
	Depth int `json:"depth,omitempty"`
	// Budget is the interior-node expansion budget the stage consumed
	// (sampling backend's near phase).
	Budget int `json:"budget_used,omitempty"`
	// Samples is the cumulative far-field sample count at stage end.
	Samples int64 `json:"samples,omitempty"`
	// Queries counts queries answered in the stage. No stage sets it
	// now that every trace covers one query; the layered benchmark
	// (perfbench) still reads it.
	Queries int64 `json:"queries,omitempty"`
	// Lower and Upper are the running density bounds at stage end; Band
	// is the confidence band width (fu−fl before envelope clamping is
	// not retained — Band records the clamped width).
	Lower float64 `json:"lower,omitempty"`
	Upper float64 `json:"upper,omitempty"`
	Band  float64 `json:"band,omitempty"`
}

// QueryTrace is the flight record of one density query: which backend
// served it, the typed stages it went through, the work it performed,
// and how close the decision came to the threshold. Traces are
// allocated by a Recorder only while tracing is enabled; the disabled
// path never sees one.
type QueryTrace struct {
	// ID is a process-unique sequence number (assigned by the flight
	// recorder).
	ID    uint64    `json:"id"`
	Start time.Time `json:"start"`
	// Latency is the query's wall-clock duration, set just before the
	// trace is handed back to the recorder.
	Latency time.Duration `json:"latency_ns"`
	// Kind is the query type: "score" (threshold classification) or
	// "density" (DensityBounds).
	Kind string `json:"kind"`
	// Backend names the engine that answered: "tree", "sampling", or
	// "grid" when the hypergrid cache short-circuited the query.
	Backend string `json:"backend"`
	// Label is the classification outcome ("HIGH"/"LOW"), empty for
	// density-only queries.
	Label string `json:"label,omitempty"`
	// Query is a copy of the query point.
	Query []float64 `json:"query,omitempty"`
	// Threshold, bounds, and the point estimate behind the decision.
	Threshold float64 `json:"threshold,omitempty"`
	Lower     float64 `json:"lower"`
	Upper     float64 `json:"upper"`
	Estimate  float64 `json:"estimate"`
	// Margin is Estimate − Threshold: how far the decision sat from the
	// classification boundary.
	Margin float64 `json:"margin"`
	// Straddle reports that the density bounds still contained the
	// threshold at decision time — the ε-band "uncertain" cases whose
	// label the approximation contract leaves free. The flight recorder
	// retains these unconditionally.
	Straddle bool `json:"straddle"`
	// Certified reports whether the bounds are deterministic
	// certificates (tree) rather than ≥ 1−δ confidence bands (sampling).
	Certified bool `json:"certified"`
	// GridHit marks queries the hypergrid cache answered outright.
	GridHit bool `json:"grid_hit,omitempty"`
	// Totals across all stages, in QueryStats units.
	PointKernels int64 `json:"point_kernels"`
	BoundKernels int64 `json:"bound_kernels"`
	Nodes        int64 `json:"nodes"`

	Stages []TraceStage `json:"stages"`
}

// AddStage appends one typed stage to the trace.
func (t *QueryTrace) AddStage(s TraceStage) { t.Stages = append(t.Stages, s) }

// jsonFloat renders a possibly non-finite float for JSON: encoding/json
// rejects ±Inf and NaN as numbers, and certified bounds legitimately
// reach +Inf (a query provably above threshold needs no finite upper
// bound). Non-finite values become the strings Prometheus also uses.
func jsonFloat(v float64) any {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return v
}

// jsonFloatOmit is jsonFloat for omitempty fields: exact zero marshals
// as a nil interface so the key is omitted, matching float64 omitempty.
func jsonFloatOmit(v float64) any {
	if v == 0 {
		return nil
	}
	return jsonFloat(v)
}

// MarshalJSON shadows the float fields that can hold non-finite bounds.
func (t QueryTrace) MarshalJSON() ([]byte, error) {
	type plain QueryTrace // method-free: avoids marshal recursion
	return json.Marshal(struct {
		plain
		Threshold any `json:"threshold,omitempty"`
		Lower     any `json:"lower"`
		Upper     any `json:"upper"`
		Estimate  any `json:"estimate"`
		Margin    any `json:"margin"`
	}{
		plain:     plain(t),
		Threshold: jsonFloatOmit(t.Threshold),
		Lower:     jsonFloat(t.Lower),
		Upper:     jsonFloat(t.Upper),
		Estimate:  jsonFloat(t.Estimate),
		Margin:    jsonFloat(t.Margin),
	})
}

// MarshalJSON shadows the running-bound fields the same way.
func (s TraceStage) MarshalJSON() ([]byte, error) {
	type plain TraceStage
	return json.Marshal(struct {
		plain
		Lower any `json:"lower,omitempty"`
		Upper any `json:"upper,omitempty"`
		Band  any `json:"band,omitempty"`
	}{
		plain: plain(s),
		Lower: jsonFloatOmit(s.Lower),
		Upper: jsonFloatOmit(s.Upper),
		Band:  jsonFloatOmit(s.Band),
	})
}

// String renders the trace as one human-readable block (the -stats and
// slow-query-log format).
func (t *QueryTrace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s %s/%s %v", t.ID, t.Start.Format("15:04:05.000"), t.Kind, t.Backend, t.Latency.Round(time.Microsecond))
	if t.Label != "" {
		fmt.Fprintf(&b, " label=%s margin=%.3g", t.Label, t.Margin)
	}
	if t.Straddle {
		b.WriteString(" STRADDLE")
	}
	fmt.Fprintf(&b, " kernels=%d nodes=%d", t.PointKernels+t.BoundKernels, t.Nodes)
	for _, s := range t.Stages {
		fmt.Fprintf(&b, "\n    %-16s %10v", s.Name, s.Duration.Round(time.Microsecond))
		if s.Nodes > 0 || s.Pushes > 0 {
			fmt.Fprintf(&b, " nodes=%d pushes=%d", s.Nodes, s.Pushes)
		}
		if s.Points > 0 || s.Bounds > 0 {
			fmt.Fprintf(&b, " kernels=%d+%d", s.Points, s.Bounds)
		}
		if s.Depth > 0 {
			fmt.Fprintf(&b, " depth=%d", s.Depth)
		}
		if s.Budget > 0 {
			fmt.Fprintf(&b, " budget=%d", s.Budget)
		}
		if s.Samples > 0 {
			fmt.Fprintf(&b, " samples=%d band=%.3g", s.Samples, s.Band)
		}
	}
	return b.String()
}

// DefaultTraceK is the per-category retention (slowest / most recent /
// straddling) when FlightOptions leaves K zero.
const DefaultTraceK = 32

// FlightOptions configures NewFlightRecorder.
type FlightOptions struct {
	// K is the retention per category: the K slowest traces, the K most
	// recent, and the K most recent threshold-straddling ones (default
	// DefaultTraceK).
	K int
	// SlowThreshold, when positive, additionally logs every trace at
	// least this slow through Logger and counts it in SlowLogged.
	SlowThreshold time.Duration
	// Logger receives the slow-query log lines (nil disables the log
	// even with SlowThreshold set).
	Logger *slog.Logger
}

// FlightRecorder retains the K slowest query traces, the K most recent,
// and the K most recent whose density bounds straddled the
// classification threshold (the ε-band "uncertain" cases), plus a
// structured slow-query log. A Registry forwards its trace methods to
// an attached FlightRecorder. One mutex guards the three retention
// buffers and the counters. Safe for concurrent use.
type FlightRecorder struct {
	enabled atomic.Bool
	k       int
	slowNS  int64
	log     *slog.Logger

	seq atomic.Uint64

	mu           sync.Mutex
	recent       []*QueryTrace // ring of the last k traces
	recentNext   int
	slowHeap     []*QueryTrace // min-heap on latency, ≤ k entries
	straddle     []*QueryTrace // ring of the last k straddlers
	straddleNext int
	traced       int64
	straddled    int64
	slowLogged   int64
}

// NewFlightRecorder returns an enabled flight recorder.
func NewFlightRecorder(opts FlightOptions) *FlightRecorder {
	k := opts.K
	if k <= 0 {
		k = DefaultTraceK
	}
	f := &FlightRecorder{
		k:        k,
		slowNS:   int64(opts.SlowThreshold),
		log:      opts.Logger,
		recent:   make([]*QueryTrace, k),
		slowHeap: make([]*QueryTrace, 0, k),
		straddle: make([]*QueryTrace, k),
	}
	f.enabled.Store(true)
	return f
}

// Enabled reports whether the recorder is accepting traces.
func (f *FlightRecorder) Enabled() bool { return f.enabled.Load() }

// SetEnabled toggles trace collection. Disabling stops StartTrace calls
// at the Registry's TraceEnabled gate; retained traces stay readable.
func (f *FlightRecorder) SetEnabled(on bool) { f.enabled.Store(on) }

// StartTrace allocates a fresh trace with the next sequence number.
// Traces are not pooled: a finished trace is retained by the rings and
// may be served concurrently, so recycling would race readers.
func (f *FlightRecorder) StartTrace() *QueryTrace {
	return &QueryTrace{ID: f.seq.Add(1)}
}

// FinishTrace files a completed trace into the recent ring, the
// slowest-K heap, and — when its bounds straddled the threshold — the
// straddle ring, then feeds the slow-query log. It takes ownership of
// the trace.
func (f *FlightRecorder) FinishTrace(t *QueryTrace) {
	if t == nil || !f.enabled.Load() {
		return
	}
	slow := f.slowNS > 0 && int64(t.Latency) >= f.slowNS && f.log != nil

	f.mu.Lock()
	f.traced++
	f.recent[f.recentNext] = t
	f.recentNext = (f.recentNext + 1) % f.k
	if len(f.slowHeap) < f.k {
		f.slowPush(t)
	} else if t.Latency > f.slowHeap[0].Latency {
		f.slowHeap[0] = t
		f.slowDown()
	}
	if t.Straddle {
		f.straddled++
		f.straddle[f.straddleNext] = t
		f.straddleNext = (f.straddleNext + 1) % f.k
	}
	if slow {
		f.slowLogged++
	}
	f.mu.Unlock()

	if slow {
		f.log.Warn("slow query",
			slog.Uint64("trace_id", t.ID),
			slog.String("kind", t.Kind),
			slog.String("backend", t.Backend),
			slog.Duration("latency", t.Latency),
			slog.Int64("point_kernels", t.PointKernels),
			slog.Int64("bound_kernels", t.BoundKernels),
			slog.Int64("nodes", t.Nodes),
			slog.String("label", t.Label),
			slog.Float64("margin", t.Margin),
			slog.Bool("straddle", t.Straddle),
			slog.Int("stages", len(t.Stages)),
		)
	}
}

// slowPush adds t to the latency min-heap and slowDown restores the
// heap after its root was replaced; both run under mu.
func (f *FlightRecorder) slowPush(t *QueryTrace) {
	h := append(f.slowHeap, t)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].Latency <= h[i].Latency {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	f.slowHeap = h
}

func (f *FlightRecorder) slowDown() {
	h := f.slowHeap
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l].Latency < h[smallest].Latency {
			smallest = l
		}
		if r < len(h) && h[r].Latency < h[smallest].Latency {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// newestFirst copies the filled slots of a ring whose next write goes
// to slot next, newest first.
func newestFirst(ring []*QueryTrace, next int) []*QueryTrace {
	var out []*QueryTrace
	for i := 1; i <= len(ring); i++ {
		if t := ring[(next-i+len(ring))%len(ring)]; t != nil {
			out = append(out, t)
		}
	}
	return out
}

// FlightSnapshot is a coherent copy of a flight recorder's retained
// traces and counters, ready for JSON rendering (/debug/queries).
type FlightSnapshot struct {
	Enabled bool `json:"enabled"`
	// K is the per-category retention limit.
	K int `json:"k"`
	// Traced counts every trace ever filed; Straddled the subset whose
	// bounds contained the threshold at decision time; SlowLogged those
	// at or above the slow threshold.
	Traced     int64 `json:"traced"`
	Straddled  int64 `json:"straddled"`
	SlowLogged int64 `json:"slow_logged"`
	// SlowThresholdNS is the slow-query log threshold (0 = off).
	SlowThresholdNS int64 `json:"slow_threshold_ns"`
	// Slowest is ordered slowest-first; Recent and Straddling
	// newest-first.
	Slowest    []*QueryTrace `json:"slowest"`
	Recent     []*QueryTrace `json:"recent"`
	Straddling []*QueryTrace `json:"straddling"`
}

// Snapshot copies the recorder's retained traces. Traces are immutable
// once filed, so the snapshot shares them with the rings; only the
// containing slices are fresh.
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	snap := FlightSnapshot{
		Enabled:         f.enabled.Load(),
		K:               f.k,
		SlowThresholdNS: f.slowNS,
	}
	f.mu.Lock()
	snap.Traced, snap.Straddled, snap.SlowLogged = f.traced, f.straddled, f.slowLogged
	snap.Recent = newestFirst(f.recent, f.recentNext)
	snap.Straddling = newestFirst(f.straddle, f.straddleNext)
	snap.Slowest = append(snap.Slowest, f.slowHeap...)
	f.mu.Unlock()
	sort.Slice(snap.Slowest, func(i, j int) bool { return snap.Slowest[i].Latency > snap.Slowest[j].Latency })
	return snap
}

// String renders the flight-recorder summary for -stats: counters plus
// the slowest and straddling traces.
func (s FlightSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: %d traced, %d straddled, %d slow-logged", s.Traced, s.Straddled, s.SlowLogged)
	if s.SlowThresholdNS > 0 {
		fmt.Fprintf(&b, " (slow ≥ %v)", time.Duration(s.SlowThresholdNS))
	}
	b.WriteString("\n")
	if len(s.Slowest) > 0 {
		b.WriteString("slowest:\n")
		for _, t := range s.Slowest {
			fmt.Fprintf(&b, "  %s\n", t)
		}
	}
	if len(s.Straddling) > 0 {
		b.WriteString("threshold-straddling:\n")
		for _, t := range s.Straddling {
			fmt.Fprintf(&b, "  %s\n", t)
		}
	}
	return b.String()
}
