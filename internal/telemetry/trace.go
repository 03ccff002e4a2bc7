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
// allocated by a TraceSink only while tracing is enabled; the disabled
// path never sees one.
type QueryTrace struct {
	// ID is a process-unique sequence number (assigned by the sink).
	ID    uint64    `json:"id"`
	Start time.Time `json:"start"`
	// Latency is the query's wall-clock duration, set just before the
	// trace is handed back to the sink.
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

// TraceSink receives per-query flight records. The query path gates
// every trace behind TraceEnabled(), which must stay as cheap as an
// atomic load: with tracing disabled a query performs that single check
// and allocates nothing. StartTrace hands out a trace to populate;
// FinishTrace takes ownership back (the caller must not touch the trace
// afterwards — it may be retained, rendered, and served concurrently).
type TraceSink interface {
	TraceEnabled() bool
	StartTrace() *QueryTrace
	FinishTrace(*QueryTrace)
}

// DefaultTraceK is the per-category retention (slowest / most recent /
// straddling) when FlightOptions leaves K zero.
const DefaultTraceK = 32

// traceShards spreads recent-trace inserts over this many locks; a
// power of two so the sequence counter selects a shard with a mask.
const traceShards = 8

// traceShard is one lock-sharded slot ring of the most-recent buffer,
// padded past a cache line so neighboring shards don't false-share.
type traceShard struct {
	mu   sync.Mutex
	ring []*QueryTrace
	next int
	_    [64]byte
}

// FlightOptions configures NewFlightRecorder.
type FlightOptions struct {
	// K is the retention per category: the K slowest traces, the K most
	// recent, and the K most recent threshold-straddling ones (default
	// DefaultTraceK; rounded up to a multiple of the shard count for the
	// recent ring).
	K int
	// SlowThreshold, when positive, additionally logs every trace at
	// least this slow through Logger and counts it in SlowLogged.
	SlowThreshold time.Duration
	// Logger receives the slow-query log lines (nil disables the log
	// even with SlowThreshold set).
	Logger *slog.Logger
}

// FlightRecorder is the standard TraceSink: a lock-sharded ring buffer
// that retains the K slowest traces, the K most recent, and the K most
// recent whose density bounds straddled the classification threshold
// (the ε-band "uncertain" cases), plus a structured slow-query log.
// Inserts are designed for many concurrent query goroutines: recent
// traces spread round-robin over sharded locks, and the slowest-K heap
// is guarded by an atomic floor so queries faster than the current
// K-th-slowest never touch its lock. Safe for concurrent use.
type FlightRecorder struct {
	enabled atomic.Bool
	k       int
	slowNS  int64
	log     *slog.Logger

	seq atomic.Uint64

	shards [traceShards]traceShard

	slowMu    sync.Mutex
	slowHeap  []*QueryTrace // min-heap on latency, ≤ k entries
	slowFloor atomic.Int64  // latency of the heap minimum once full

	straddleMu   sync.Mutex
	straddleRing []*QueryTrace
	straddleNext int

	traced     Counter
	straddled  Counter
	slowLogged Counter
}

// NewFlightRecorder returns an enabled flight recorder.
func NewFlightRecorder(opts FlightOptions) *FlightRecorder {
	k := opts.K
	if k <= 0 {
		k = DefaultTraceK
	}
	perShard := (k + traceShards - 1) / traceShards
	f := &FlightRecorder{
		k:      perShard * traceShards,
		slowNS: int64(opts.SlowThreshold),
		log:    opts.Logger,
	}
	for i := range f.shards {
		f.shards[i].ring = make([]*QueryTrace, perShard)
	}
	f.straddleRing = make([]*QueryTrace, f.k)
	f.enabled.Store(true)
	return f
}

// Enabled reports whether the recorder is accepting traces.
func (f *FlightRecorder) Enabled() bool { return f.enabled.Load() }

// SetEnabled toggles trace collection. Disabling stops StartTrace calls
// at the TraceEnabled gate; retained traces stay readable.
func (f *FlightRecorder) SetEnabled(on bool) { f.enabled.Store(on) }

// SlowThreshold returns the slow-query log threshold (0 = log off).
func (f *FlightRecorder) SlowThreshold() time.Duration { return time.Duration(f.slowNS) }

// TraceEnabled implements TraceSink.
func (f *FlightRecorder) TraceEnabled() bool { return f.enabled.Load() }

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
	f.traced.Inc()

	// Most-recent ring: strict round-robin over the shards, so the union
	// of the shard rings is exactly the last k traces (modulo in-flight
	// races, which can reorder neighbors but never lose a slot).
	s := &f.shards[t.ID&(traceShards-1)]
	s.mu.Lock()
	s.ring[s.next] = t
	s.next = (s.next + 1) % len(s.ring)
	s.mu.Unlock()

	// Slowest-K: the atomic floor keeps fast queries (the overwhelming
	// majority) off the heap lock entirely.
	lat := int64(t.Latency)
	if lat > f.slowFloor.Load() {
		f.slowMu.Lock()
		if len(f.slowHeap) < f.k {
			f.slowPush(t)
			if len(f.slowHeap) == f.k {
				f.slowFloor.Store(int64(f.slowHeap[0].Latency))
			}
		} else if lat > int64(f.slowHeap[0].Latency) {
			f.slowPop()
			f.slowPush(t)
			f.slowFloor.Store(int64(f.slowHeap[0].Latency))
		}
		f.slowMu.Unlock()
	}

	if t.Straddle {
		f.straddled.Inc()
		f.straddleMu.Lock()
		f.straddleRing[f.straddleNext] = t
		f.straddleNext = (f.straddleNext + 1) % len(f.straddleRing)
		f.straddleMu.Unlock()
	}

	if f.slowNS > 0 && lat >= f.slowNS && f.log != nil {
		f.slowLogged.Inc()
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

// slowPush and slowPop maintain the min-heap on latency under slowMu.
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

func (f *FlightRecorder) slowPop() {
	h := f.slowHeap
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
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
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	f.slowHeap = h
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
		Traced:          f.traced.Load(),
		Straddled:       f.straddled.Load(),
		SlowLogged:      f.slowLogged.Load(),
		SlowThresholdNS: f.slowNS,
	}

	for i := range f.shards {
		s := &f.shards[i]
		s.mu.Lock()
		for _, t := range s.ring {
			if t != nil {
				snap.Recent = append(snap.Recent, t)
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(snap.Recent, func(i, j int) bool { return snap.Recent[i].ID > snap.Recent[j].ID })

	f.slowMu.Lock()
	snap.Slowest = append(snap.Slowest, f.slowHeap...)
	f.slowMu.Unlock()
	sort.Slice(snap.Slowest, func(i, j int) bool { return snap.Slowest[i].Latency > snap.Slowest[j].Latency })

	f.straddleMu.Lock()
	for _, t := range f.straddleRing {
		if t != nil {
			snap.Straddling = append(snap.Straddling, t)
		}
	}
	f.straddleMu.Unlock()
	sort.Slice(snap.Straddling, func(i, j int) bool { return snap.Straddling[i].ID > snap.Straddling[j].ID })

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
