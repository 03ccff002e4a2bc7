package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tkdc/internal/grid"
	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
	"tkdc/internal/stats"
	"tkdc/internal/telemetry"
)

// Label is a density classification outcome.
type Label int

const (
	// Low marks a point whose density is below the threshold (an outlier
	// for small p).
	Low Label = iota
	// High marks a point whose density is above the threshold.
	High
)

// String returns "LOW" or "HIGH", matching the paper's notation.
func (l Label) String() string {
	if l == High {
		return "HIGH"
	}
	return "LOW"
}

// Result carries a classification together with the density bounds it
// was derived from and the work performed.
type Result struct {
	Label Label
	// Lower and Upper are certified bounds on the kernel density at the
	// query point, on either backend. When the grid cache answered, Lower
	// is the grid bound and Upper is +Inf.
	Lower, Upper float64
	// Density is the backend's point estimate of the density — the value
	// the label was decided on. The tree backend reports the bound
	// midpoint (fl+fu)/2; grid hits report the grid's lower bound. The
	// near-first start (BackendSampling) reports the bound on the decided
	// side: Lower for HIGH, Upper for LOW, and the midpoint when only the
	// tolerance rule fired or the density was resolved exactly.
	Density float64
	Stats   QueryStats
}

// Estimate returns the density point estimate the classification used
// (see the Density field).
func (r Result) Estimate() float64 { return r.Density }

// Counters aggregates work across queries. Values are totals since Train.
type Counters struct {
	Queries      int64
	GridHits     int64
	PointKernels int64
	BoundKernels int64
	NodesVisited int64
	// SamplingRounds and SampledPoints are always 0: no engine samples.
	// They remain because the layered benchmark (perfbench) still
	// builds Counters values with them.
	SamplingRounds int64
	SampledPoints  int64
}

// Kernels returns total kernel evaluations, point and bound combined.
func (c Counters) Kernels() int64 { return c.PointKernels + c.BoundKernels }

// counterShards spreads commit traffic across this many locks; a power
// of two so the ticket counter selects a shard with a mask.
const counterShards = 16

// counterShard pads each mutex+totals pair past a cache line so
// neighboring shards don't false-share.
type counterShard struct {
	mu sync.Mutex
	c  Counters
	_  [64]byte
}

// workCounters aggregates per-query work with snapshot coherence: each
// query commits all of its counters inside one shard's critical
// section, so a reader can never observe a query counted without its
// work (or torn totals). Commits are spread round-robin over sharded
// locks by a wait-free ticket counter, so many concurrent Classify
// callers on many cores contend on a single atomic add rather than
// serializing through one process-wide mutex.
type workCounters struct {
	seq    atomic.Uint32
	shards [counterShards]counterShard
}

// add commits one query's counters atomically with respect to
// snapshot; qs.GridHit marks a query the grid cache answered.
func (w *workCounters) add(qs QueryStats) {
	s := &w.shards[w.seq.Add(1)&(counterShards-1)]
	s.mu.Lock()
	s.c.Queries++
	if qs.GridHit {
		s.c.GridHits++
	}
	s.c.PointKernels += qs.PointKernels
	s.c.BoundKernels += qs.BoundKernels
	s.c.NodesVisited += qs.NodesVisited
	s.mu.Unlock()
}

// snapshot sums the shards, locking each in turn. Because every query
// commits whole within one shard, the sum never tears an individual
// query; queries committing concurrently in other shards may or may
// not be included, the same guarantee the single-lock version gave.
func (w *workCounters) snapshot() Counters {
	var total Counters
	for i := range w.shards {
		s := &w.shards[i]
		s.mu.Lock()
		c := s.c
		s.mu.Unlock()
		total.Queries += c.Queries
		total.GridHits += c.GridHits
		total.PointKernels += c.PointKernels
		total.BoundKernels += c.BoundKernels
		total.NodesVisited += c.NodesVisited
	}
	return total
}

// TrainStats describes the training phase.
type TrainStats struct {
	N, Dim     int
	Bandwidths []float64
	// ThresholdLow and ThresholdHigh bound t(p) with probability ≥ 1−δ:
	// the l-th and u-th order statistics (Equation 11 at s = n) of the
	// accepted full-size pass, which bracket Threshold by construction.
	ThresholdLow  float64
	ThresholdHigh float64
	Threshold     float64 // refined estimate t̃(p)
	// BootstrapRounds counts Algorithm 3's subsampled rounds, each
	// retry as one more, although a retry resumes on its round's sample;
	// it is 0 when n ≤ R0. The full-size pass is not a round.
	BootstrapRounds int
	// TrainKernels counts kernel evaluations spent in training (bootstrap
	// rounds plus the full-size passes).
	TrainKernels int64
	// Workers is the effective goroutine budget the training pipeline
	// fanned out to (1 = single-threaded): tree build, bootstrap
	// scoring, grid fill, and the refinement pass all share it.
	Workers     int
	GridEnabled bool
	GridCells   int
	// Phases is the training trace, in pipeline order: the serving
	// KDE and grid construction ("assemble"), one span per subsampled
	// bootstrap round ("bootstrap/round-NN"), and one span per
	// full-size pass ("refine/pass-N") — the §3.6 retries with a
	// widened window appear as extra refine passes. A retry that
	// resumes after an upper failure is still one span; its kernels
	// cover only the rows it re-scored, while Items counts every row it
	// ranks. Span kernel counts sum to TrainKernels. Snapshots keep each
	// phase's name, kernels, items and workers but not its Duration, so
	// a loaded model's phases carry no durations.
	Phases []telemetry.Span
}

// Classifier is a trained tKDC model. It is immutable after Train and
// safe for concurrent queries.
type Classifier struct {
	cfg     Config
	dim     int
	data    *points.Store
	backend string // resolved backend tag (BackendTree or BackendSampling)

	kern        *kernel.Gaussian
	tree        *kdtree.Tree
	grid        *grid.Grid
	gridKDiag   float64
	tLow, tHigh float64
	threshold   float64
	selfContrib float64

	train TrainStats

	estPool sync.Pool

	counters workCounters
	rec      telemetry.Recorder
}

// Train fits a tKDC classifier to a slice-of-rows dataset. The rows are
// copied into flat storage up front, so the caller remains free to reuse
// or mutate them after Train returns. See TrainStore for the training
// pipeline.
func Train(data [][]float64, cfg Config) (*Classifier, error) {
	if len(data) == 0 {
		return nil, errors.New("core: empty training dataset")
	}
	store, err := points.FromRows(data)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return TrainStore(store, cfg)
}

// TrainFlat fits a tKDC classifier to data already in flat row-major
// form: flat holds n·dim coordinates with point i at
// flat[i*dim : (i+1)*dim]. The buffer is copied in, like Train.
func TrainFlat(flat []float64, dim int, cfg Config) (*Classifier, error) {
	store, err := points.FromFlat(flat, dim)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return TrainStore(store, cfg)
}

// TrainStore fits a tKDC classifier to flat storage: it builds the
// serving KDE and grid cache, runs Algorithm 3's rounds on subsamples
// smaller than n, scores every training point against the window they
// carried to take t̃(p) and its bounds in one full-size pass, and
// returns a classifier ready to serve queries (Algorithm 1).
//
// The store is referenced, not copied; it must not be mutated afterwards
// (the public tkdc entry points always pass a fresh copy).
func TrainStore(data *points.Store, cfg Config) (*Classifier, error) {
	cfg = cfg.normalized()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// The start follows the data's dimension; the deprecated field
	// records that, so a caller's setting reaches neither the engine nor
	// the snapshot bytes.
	cfg.Backend = BackendAuto
	if data.Len() == 0 {
		return nil, errors.New("core: empty training dataset")
	}
	if data.Dim == 0 {
		return nil, errors.New("core: zero-dimensional training data")
	}
	if err := data.CheckFinite(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	workers := effectiveWorkers(cfg.Workers)
	if workers < 1 {
		workers = 1
	}

	// Phase 1: the serving KDE — bandwidths, kernel, index and grid.
	asmStart := time.Now()
	c, err := assemble(data, cfg, resolveBackend(data.Dim))
	if err != nil {
		return nil, err
	}
	phases := []telemetry.Span{{
		Name:     "assemble",
		Duration: time.Since(asmStart),
		Items:    int64(data.Len()),
		Workers:  workers,
	}}

	// Phase 2: Algorithm 3's subsampled rounds narrow a window on t(p).
	// Each round contributes a trace span.
	tb, err := boundThreshold(data, cfg, rng)
	if err != nil {
		return nil, err
	}
	phases = append(phases, tb.spans...)

	// Phase 3: Algorithm 3's last round and Algorithm 1's refinement in
	// one pass: score every training point against the window to take
	// t̃(p). If δ struck and the window was invalid, detect it (t̃
	// escaping the window) and retry with the escaped side widened
	// (§3.6). The accepted pass's CI order statistics become t_low and
	// t_high, which bracket t̃ by construction.
	n := data.Len()
	l, u, err := stats.QuantileCIIndices(n, cfg.P, cfg.Delta)
	if err != nil {
		return nil, fmt.Errorf("core: threshold quantile CI: %w", err)
	}
	trainKernels := tb.queries.Kernels()
	tl, tu := tb.lo, tb.hi
	// vals keeps the pass's densities in row order, so a pass that
	// failed only on its upper side resumes: a row below the failed tu
	// was neither a grid hit (those report a bound above tu) nor decided
	// HIGH, so it takes the same steps to the same value under a higher
	// tu, and only the rows at or above it are re-scored.
	vals := make([]float64, n)
	sorted := make([]float64, n)
	var rows []int // the rows the next pass scores; nil means all
	const maxAttempts = 4
	for attempt := 0; ; attempt++ {
		passStart := time.Now()
		passStats := c.scorePass(vals, rows, tl, tu)
		trainKernels += passStats.Kernels()
		copy(sorted, vals)
		sort.Float64s(sorted)
		phases = append(phases, telemetry.Span{
			Name:     fmt.Sprintf("refine/pass-%d", attempt+1),
			Duration: time.Since(passStart),
			Kernels:  passStats.Kernels(),
			Items:    int64(n),
			Workers:  workers,
		})
		t, qerr := stats.SortedQuantile(sorted, cfg.P)
		if qerr != nil {
			return nil, qerr
		}
		hiOK := t <= tu || math.IsInf(tu, 1)
		loOK := t >= tl || tl <= 0
		if hiOK && loOK {
			c.threshold = t
			c.tLow, _ = stats.SortedOrderStatistic(sorted, l)
			c.tHigh, _ = stats.SortedOrderStatistic(sorted, u)
			break
		}
		if attempt == maxAttempts {
			return nil, fmt.Errorf("core: threshold estimate %g escaped bootstrap bounds [%g, %g] after %d attempts", t, tl, tu, attempt)
		}
		if !loOK {
			// A lower failure moves tolCut, so every row is re-scored.
			tl = scaleTowardZero(tl, cfg.HBackoff)
			rows = nil
		} else {
			rows = rowsAtOrAbove(vals, tu, rows[:0])
		}
		if !hiOK {
			tu = scaleTowardInf(tu, cfg.HBackoff)
		}
	}

	c.train = TrainStats{
		N:               data.Len(),
		Dim:             c.dim,
		Bandwidths:      c.kern.Bandwidths(),
		ThresholdLow:    c.tLow,
		ThresholdHigh:   c.tHigh,
		Threshold:       c.threshold,
		BootstrapRounds: tb.rounds,
		TrainKernels:    trainKernels,
		Workers:         workers,
		GridEnabled:     c.grid != nil,
		Phases:          phases,
	}
	if c.grid != nil {
		c.train.GridCells = c.grid.Cells()
	}
	if c.rec.Enabled() {
		for _, sp := range phases {
			c.rec.RecordSpan(sp)
		}
	}
	return c, nil
}

// buildKDE fits the kernel density estimate over data: Scott's-rule
// bandwidths, the Gaussian kernel, and the k-d tree index. It is the
// one place the package builds a KDE — for the serving model, for
// Algorithm 3's subsampled rounds, and for the drift probe.
func buildKDE(data *points.Store, cfg Config) (*kernel.Gaussian, *kdtree.Tree, error) {
	h, err := kernel.ScottBandwidths(data, cfg.BandwidthFactor)
	if err != nil {
		return nil, nil, fmt.Errorf("core: bandwidth: %w", err)
	}
	kern, err := kernel.NewGaussian(h)
	if err != nil {
		return nil, nil, err
	}
	tree, err := kdtree.Build(data, kdtree.Options{LeafSize: cfg.LeafSize, Split: cfg.Split, Workers: cfg.Workers})
	if err != nil {
		return nil, nil, fmt.Errorf("core: index: %w", err)
	}
	return kern, tree, nil
}

// assemble builds the deterministic serving machinery over a dataset —
// the KDE, grid cache, and estimator pool — shared by training and
// snapshot loading. backend is the start the pool builds and Backend
// reports; cfg is kept as given, so a loaded model re-encodes to its own
// bytes. Thresholds are left for the caller to fill in.
func assemble(data *points.Store, cfg Config, backend string) (*Classifier, error) {
	kern, tree, err := buildKDE(data, cfg)
	if err != nil {
		return nil, err
	}
	rec := cfg.Recorder
	if rec == nil {
		rec = telemetry.Nop{}
	}
	c := &Classifier{
		cfg:         cfg,
		dim:         data.Dim,
		data:        data,
		backend:     backend,
		kern:        kern,
		tree:        tree,
		selfContrib: kern.AtZero() / float64(data.Len()),
		rec:         rec,
	}
	c.estPool.New = func() any {
		return &pooledBackend{DensityBackend: NewBackend(c.tree, c.kern, cfg, backend)}
	}
	if !cfg.DisableGrid && c.dim <= cfg.MaxGridDim {
		g, err := grid.NewWorkers(data, kern.Bandwidths(), cfg.Workers)
		if err != nil {
			return nil, err
		}
		c.grid = g
		c.gridKDiag = kern.FromScaledSqDist(g.DiagSqScaled(kern.InvBandwidthsSq()))
	}
	return c, nil
}

// effectiveWorkers returns the worker count fan-out paths use: the
// configured value clamped to a small multiple of GOMAXPROCS so a
// misconfigured Workers can't spawn thousands of goroutines. Values
// below 2 mean single-threaded. It governs every parallel stage in the
// stack — ClassifyAll batches, the threshold-refinement density pass,
// bootstrap scoring, k-d tree construction, and the grid fill.
func effectiveWorkers(w int) int {
	if limit := runtime.GOMAXPROCS(0) * 4; w > limit {
		w = limit
	}
	return w
}

// forEachChunk runs body over the indices [0, n) across the effective
// worker budget and waits for it. Each goroutine calls body once, and
// body asks next for index blocks [lo, hi) until next returns an empty
// one. The blocks come from a shared atomic cursor, so a goroutine the
// scheduler holds back (the serving reader shares the cores) delays at
// most one block of the pass, not its own fixed share. Below two
// workers, or when n is too small to amortize goroutine start-up, body
// runs on the calling goroutine and next hands out [0, n) once. Every
// fan-out in the package goes through here: the batch sweeps, the
// refinement pass and the threshold bootstrap. Each goroutine counts
// its work into its own QueryStats and forEachChunk returns their sum;
// the counters are plain sums, so the total is the same at any worker
// count and block assignment.
func forEachChunk(workers, n int, body func(next func() (lo, hi int), qs *QueryStats)) QueryStats {
	workers = effectiveWorkers(workers)
	inline := workers < 2 || n < 2*workers
	block := n
	if !inline {
		// Sixteen blocks per worker balance the pass without making
		// the cursor a hot spot.
		block = max(8, n/(16*workers))
	}
	var cursor atomic.Int64
	next := func() (int, int) {
		lo := min(int(cursor.Add(int64(block)))-block, n)
		return lo, min(lo+block, n)
	}
	if inline {
		var qs QueryStats
		body(next, &qs)
		return qs
	}
	stats := make([]QueryStats, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range stats {
		go func() {
			defer wg.Done()
			// A local per goroutine: adjacent slots of stats would share
			// a cache line, and the tree traversal bumps its counters
			// once per node.
			var qs QueryStats
			body(next, &qs)
			stats[w] = qs
		}()
	}
	wg.Wait()
	var total QueryStats
	for _, qs := range stats {
		total.add(qs)
	}
	return total
}

// rowScorer scores row i of a pass, counting its work into qs.
type rowScorer func(i int, qs *QueryStats) float64

// scoreRows is the score loop of the bootstrap rounds and the full-size
// pass: it writes each listed row's score into vals[i], for every index
// of vals when rows is nil. The rows fan out with forEachChunk; each
// goroutine scores through the scorer newScorer returns and calls the
// paired release when done. A row's score depends only on the row and
// each row writes its own slot, so vals is the same at any worker count
// and with any row list.
func scoreRows(workers int, vals []float64, rows []int, newScorer func() (rowScorer, func())) QueryStats {
	n := len(vals)
	if rows != nil {
		n = len(rows)
	}
	return forEachChunk(workers, n, func(next func() (int, int), qs *QueryStats) {
		score, release := newScorer()
		defer release()
		for lo, hi := next(); lo < hi; lo, hi = next() {
			for k := lo; k < hi; k++ {
				i := k
				if rows != nil {
					i = rows[k]
				}
				vals[i] = score(i, qs)
			}
		}
	})
}

// scorePass writes the corrected density of each listed training row
// (every row when rows is nil) into vals, scored against the window
// (tl, tu) as the full-size pass scores it.
func (c *Classifier) scorePass(vals []float64, rows []int, tl, tu float64) QueryStats {
	return scoreRows(c.cfg.Workers, vals, rows, func() (rowScorer, func()) {
		est := c.getEstimator()
		return func(i int, qs *QueryStats) float64 {
			return c.trainingDensityOne(est.DensityBackend, c.data.Row(i), tl, tu, qs)
		}, func() { c.putEstimator(est) }
	})
}

// trainingDensityOne scores one training point for the threshold pass.
// Grid-pruned points record their (certified) lower bound, which keeps
// their rank above any threshold inside the bootstrap bounds. The grid
// bound is corrected for the point's self-contribution before comparing,
// because the bootstrap bounds live in corrected-density space.
func (c *Classifier) trainingDensityOne(est DensityBackend, x []float64, tl, tu float64, qs *QueryStats) float64 {
	if c.grid != nil && !math.IsInf(tu, 1) {
		if lb := c.grid.LowerBoundDensity(x, c.gridKDiag) - c.selfContrib; lb > tu {
			qs.GridHit = true
			return lb
		}
	}
	// tl and tu bound the corrected quantile; pruning operates on plain
	// densities, so shift by the self-contribution.
	tolCut := c.cfg.Epsilon * math.Max(tl, 0)
	_, _, f := est.BoundDensity(x, tl+c.selfContrib, tu+c.selfContrib, tolCut, qs)
	return f - c.selfContrib
}

// Classify labels one query point against the trained threshold.
func (c *Classifier) Classify(x []float64) (Label, error) {
	r, err := c.Score(x)
	return r.Label, err
}

// Score labels one query point and returns the density bounds behind the
// decision (Algorithm 1's Classify with the Section 3.7 grid check).
func (c *Classifier) Score(x []float64) (Result, error) {
	if err := c.checkQuery(x); err != nil {
		return Result{}, err
	}
	return c.scoreChecked(x), nil
}

// scoreChecked is Score minus query validation, for batch paths that have
// already validated their inputs. Telemetry is gated on the recorder's
// atomic enabled flag: with the default no-op recorder the only extra
// work versus an untraced build is that one boolean load.
func (c *Classifier) scoreChecked(x []float64) Result {
	traced := c.rec.Enabled()
	var start time.Time
	var tr *telemetry.QueryTrace
	if traced {
		start, tr = c.startQuery(traceScore, x)
	}

	gridChecked := c.grid != nil
	if gridChecked {
		if lb := c.grid.LowerBoundDensity(x, c.gridKDiag); lb > c.threshold {
			r := Result{
				Label:   High,
				Lower:   lb,
				Upper:   math.Inf(1),
				Density: lb,
				Stats:   QueryStats{GridHit: true},
			}
			c.counters.add(r.Stats)
			if traced {
				c.finishQuery(start, tr, r, "grid", true)
			}
			return r
		}
	}

	est := c.getEstimator()
	est.qs.Trace = tr
	fl, fu, f := est.BoundDensity(x, c.threshold, c.threshold, c.cfg.Epsilon*c.threshold, &est.qs)
	backendName := est.Name()
	qs := est.qs
	c.putEstimator(est)
	qs.Trace = nil
	c.counters.add(qs)

	label := Low
	if f > c.threshold {
		label = High
	}
	r := Result{Label: label, Lower: fl, Upper: fu, Density: f, Stats: qs}
	if traced {
		c.finishQuery(start, tr, r, backendName, gridChecked)
	}
	return r
}

// Trace kinds: a threshold classification or a DensityBounds query.
const (
	traceScore   = "score"
	traceDensity = "density"
)

// startQuery opens one query's telemetry once the recorder is enabled:
// it reads the clock and, when the recorder is tracing, starts a trace
// of the given kind over a copy of x. The trace is nil otherwise.
func (c *Classifier) startQuery(kind string, x []float64) (time.Time, *telemetry.QueryTrace) {
	start := time.Now()
	if !c.rec.TraceEnabled() {
		return start, nil
	}
	tr := c.rec.StartTrace()
	if tr != nil {
		tr.Start = start
		tr.Kind = kind
		tr.Query = append([]float64(nil), x...)
		if kind == traceScore {
			tr.Threshold = c.threshold
		}
	}
	return start, tr
}

// finishQuery closes what startQuery opened: it fills in and files the
// trace, when there is one, and records the query's sample. r is the
// query's answer; a density query has no label, margin or straddle.
func (c *Classifier) finishQuery(start time.Time, tr *telemetry.QueryTrace, r Result, backend string, gridChecked bool) {
	lat := time.Since(start)
	qs := r.Stats
	if tr != nil {
		tr.Latency = lat
		tr.Backend = backend
		tr.Lower, tr.Upper, tr.Estimate = r.Lower, r.Upper, r.Density
		tr.GridHit = qs.GridHit
		tr.PointKernels = qs.PointKernels
		tr.BoundKernels = qs.BoundKernels
		tr.Nodes = qs.NodesVisited
		if tr.Kind == traceScore {
			tr.Label = r.Label.String()
			tr.Margin = r.Density - c.threshold
			tr.Straddle = r.Lower <= c.threshold && c.threshold <= r.Upper
		}
		c.rec.FinishTrace(tr)
	}
	c.rec.RecordQuery(telemetry.QuerySample{
		Latency:      lat,
		PointKernels: qs.PointKernels,
		BoundKernels: qs.BoundKernels,
		Nodes:        qs.NodesVisited,
		GridChecked:  gridChecked,
		GridHit:      qs.GridHit,
	})
}

// ClassifyAll labels a batch of query points, fanning out across
// Config.Workers goroutines when configured. Queries are validated once
// up front; the result order matches the input order.
func (c *Classifier) ClassifyAll(queries [][]float64) ([]Label, error) {
	for i, x := range queries {
		if err := c.checkQuery(x); err != nil {
			return nil, fmt.Errorf("core: query %d: %w", i, err)
		}
	}
	out := make([]Label, len(queries))
	forEachChunk(c.cfg.Workers, len(queries), func(next func() (int, int), _ *QueryStats) {
		for lo, hi := next(); lo < hi; lo, hi = next() {
			for i := lo; i < hi; i++ {
				out[i] = c.scoreChecked(queries[i]).Label
			}
		}
	})
	return out, nil
}

// DensityBounds estimates the density at x to relative precision rel
// (fu − fl ≤ rel·fl), ignoring the threshold. Use it when actual density
// values are needed (p-values, contour levels) rather than
// classifications. rel ≤ 0 computes the density exactly.
func (c *Classifier) DensityBounds(x []float64, rel float64) (fl, fu float64, err error) {
	if err := c.checkQuery(x); err != nil {
		return 0, 0, err
	}
	traced := c.rec.Enabled()
	var start time.Time
	var tr *telemetry.QueryTrace
	if traced {
		start, tr = c.startQuery(traceDensity, x)
	}
	est := c.getEstimator()
	est.qs.Trace = tr
	var f float64
	fl, fu, f = est.EstimateDensity(x, rel, &est.qs)
	backendName := est.Name()
	qs := est.qs
	c.putEstimator(est)
	qs.Trace = nil
	c.counters.add(qs)
	if traced {
		c.finishQuery(start, tr, Result{Lower: fl, Upper: fu, Density: f, Stats: qs}, backendName, false)
	}
	return fl, fu, nil
}

// Threshold returns the refined classification threshold t̃(p).
func (c *Classifier) Threshold() float64 { return c.threshold }

// ThresholdBounds returns the probabilistic bounds (t_low, t_high) on
// t(p), valid with probability ≥ 1−δ: the Equation 11 order statistics
// of the full-size training pass, so t_low ≤ t̃(p) ≤ t_high. Training
// does not prune with them; they are persisted and reported.
func (c *Classifier) ThresholdBounds() (lo, hi float64) { return c.tLow, c.tHigh }

// SelfContribution returns K_H(0)/n, the density a training point
// contributes to itself (subtracted when estimating t(p), Section 2.3).
func (c *Classifier) SelfContribution() float64 { return c.selfContrib }

// Bandwidths returns the per-dimension kernel bandwidths in use.
func (c *Classifier) Bandwidths() []float64 { return c.kern.Bandwidths() }

// Dim returns the data dimensionality.
func (c *Classifier) Dim() int { return c.dim }

// Config returns the configuration the classifier was trained (or
// loaded) with, defaults filled in. Its deprecated Backend field is what
// the snapshot recorded and selects nothing; Backend reports the start
// that serves. The streaming lifecycle uses it to rebuild models with
// identical parameters, so a retrain starts where its data's dimension
// says.
func (c *Classifier) Config() Config { return c.cfg }

// Backend returns the tag of the start that serves (BackendTree or
// BackendSampling): the one the training data's dimension picked, or
// the one a v3 snapshot recorded.
func (c *Classifier) Backend() string { return c.backend }

// TrainingData returns the classifier's flat training storage. The store
// is shared, not copied — callers must treat it as read-only (the k-d
// tree and grid index into it). The streaming lifecycle reads it to seed
// a reservoir with the rows the initial model was trained on.
func (c *Classifier) TrainingData() *points.Store { return c.data }

// N returns the training set size.
func (c *Classifier) N() int { return c.data.Len() }

// TrainStats reports how training went.
func (c *Classifier) TrainStats() TrainStats { return c.train }

// Stats returns a snapshot of the work counters accumulated by queries
// since training (training work is in TrainStats). The snapshot is
// coherent under concurrent Classify callers: every query commits all
// of its counters in one critical section, so Stats never observes a
// query counted without its work.
func (c *Classifier) Stats() Counters {
	return c.counters.snapshot()
}

// Snapshot returns the telemetry collected by the classifier's
// recorder — latency and work histograms, grid counters, and the
// training phase trace — or a zero snapshot when telemetry is off or
// the recorder does not expose one.
func (c *Classifier) Snapshot() telemetry.Snapshot {
	if s, ok := c.rec.(interface{ Snapshot() telemetry.Snapshot }); ok {
		return s.Snapshot()
	}
	return telemetry.Snapshot{}
}

// SetRecorder replaces the classifier's telemetry recorder; nil
// restores the no-op. It exists to wire telemetry onto a model that was
// built without it (a Load-ed snapshot, a Train without Config.Recorder)
// and must not be called concurrently with queries — attach the
// recorder before serving begins.
func (c *Classifier) SetRecorder(r telemetry.Recorder) {
	if r == nil {
		r = telemetry.Nop{}
	}
	c.rec = r
}

// SetWorkers replaces the classifier's worker budget (Config.Workers):
// the fan-out of the batch APIs and of any retrain that inherits this
// model's configuration. A Load-ed snapshot carries the training
// machine's Workers, so serving hosts call this to adopt their own
// parallelism. Like SetRecorder it is serving wiring, not model state,
// and must not be called concurrently with queries.
func (c *Classifier) SetWorkers(w int) { c.cfg.Workers = w }

// TreeStats reports the shape of the spatial index (node and leaf
// counts, maximum depth) — the denominator for interpreting the
// nodes-visited histogram.
func (c *Classifier) TreeStats() kdtree.Stats { return c.tree.Stats() }

func (c *Classifier) checkQuery(x []float64) error {
	if len(x) != c.dim {
		return fmt.Errorf("core: query has dimension %d, want %d", len(x), c.dim)
	}
	for j, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: query coordinate %d is %v", j, v)
		}
	}
	return nil
}

// pooledBackend is what estPool holds: a density backend together with
// the QueryStats that one query at a time fills through it. The stats
// reach the backend by pointer through an interface call, so a local
// would be moved to the heap on every query; kept beside the pooled
// backend they cost nothing.
type pooledBackend struct {
	DensityBackend
	qs QueryStats
}

func (c *Classifier) getEstimator() *pooledBackend {
	return c.estPool.Get().(*pooledBackend)
}

// maxPooledHeapItems caps the refine-heap capacity a tree backend may
// carry back into the pool (see densityEstimator.Recycle).
const maxPooledHeapItems = 4096

func (c *Classifier) putEstimator(e *pooledBackend) {
	e.Recycle()
	e.qs = QueryStats{}
	c.estPool.Put(e)
}
