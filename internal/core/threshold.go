package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"tkdc/internal/grid"
	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
	"tkdc/internal/stats"
	"tkdc/internal/telemetry"
)

// thresholdBound is the outcome of Algorithm 3's subsampled rounds: a
// window (lo, hi) on the corrected p-quantile that the full-size pass
// in TrainStore scores against. The window carries the last passing
// round's order statistics widened by HBuffer, so it holds t(p) with
// probability ≥ 1−δ.
type thresholdBound struct {
	lo, hi float64
	rounds int // bootstrap rounds run (including retries)
	// upperRetries counts the rounds that failed on the upper side.
	upperRetries int
	queries      QueryStats
	// spans traces each round (including retries): duration, kernel
	// evaluations, and the subsample size it trained on.
	spans []telemetry.Span
}

// boundThreshold is Algorithm 3 up to its last round. It bootstraps a
// window on the quantile threshold t(p) by training mini-KDEs on
// geometrically growing subsamples: quantile bounds estimated on a small
// subsample make density evaluation on the next, larger subsample cheap,
// because the pruning rules of Algorithm 2 can fire. Bounds that turn
// out invalid for the larger sample are relaxed and the round retried.
//
// It runs only rounds on fewer than n rows. The round on all n rows is
// TrainStore's full-size pass, which scores every training point against
// the window returned here. When R0 ≥ n no round runs and the window is
// (0, +Inf).
//
// A round draws its sample and builds its mini-KDE once, and its
// retries resume on them. A retry after an upper failure keeps every
// row whose corrected value lies below the failed hi and re-scores only
// the rest at the raised window: tu enters Algorithm 2 only through the
// threshold rule fl > tu, so a row the failed window did not decide HIGH
// takes the same steps to the same value at any higher tu, on either
// start. A retry after a lower failure, which moves tolCut, and the
// fallback to (0, +Inf) re-score every row.
//
// Each attempt's score loop (quantilePass.score) fans its rows out, one
// private engine per goroutine. Sampling (the only RNG consumer) stays
// sequential, every row's density depends only on the row, and each row
// writes its own density slot, so the bounds are bit-identical to a
// single-threaded run.
func boundThreshold(data *points.Store, cfg Config, rng *rand.Rand) (thresholdBound, error) {
	n := data.Len()
	res := thresholdBound{lo: 0, hi: math.Inf(1)}
	spanWorkers := max(effectiveWorkers(cfg.Workers), 1)
	clipped := resolveBackend(data.Dim) == BackendTree

	const maxRetriesPerRound = 25
	// vals holds a round's densities in sample-row order, which a
	// resumed attempt updates in place, and sorted their order
	// statistics. Both are reused across rounds: sEff only grows (up to
	// S0), so the buffers settle after a few rounds.
	var vals, sorted []float64
	// Each round grows the sample by at least one row: int(r·HGrowth)
	// truncates back to r when HGrowth < 1 + 1/r.
	for r := cfg.R0; r < n; r = max(r+1, int(float64(r)*cfg.HGrowth)) {
		attemptStart := time.Now()
		sample, err := drawRound(data, r, cfg, rng)
		if err != nil {
			return res, err
		}
		sEff := sample.scored.Len()
		l, u, err := stats.QuantileCIIndices(sEff, cfg.P, cfg.Delta)
		if err != nil {
			return res, fmt.Errorf("core: threshold bootstrap quantile CI: %w", err)
		}
		if cap(vals) < sEff {
			vals, sorted = make([]float64, sEff), make([]float64, sEff)
		}
		vals, sorted = vals[:sEff], sorted[:sEff]

		var rows []int // the rows the next attempt scores; nil means all
		for retries := 0; ; {
			res.rounds++
			kernelsBefore := res.queries.Kernels()
			res.queries.add(sample.score(vals, rows, res.lo, res.hi))
			copy(sorted, vals)
			sort.Float64s(sorted)

			res.spans = append(res.spans, telemetry.Span{
				Name:     fmt.Sprintf("bootstrap/round-%02d", res.rounds),
				Duration: time.Since(attemptStart),
				Kernels:  res.queries.Kernels() - kernelsBefore,
				Items:    int64(r),
				Workers:  spanWorkers,
			})
			attemptStart = time.Now()

			dl, _ := stats.SortedOrderStatistic(sorted, l)
			du, _ := stats.SortedOrderStatistic(sorted, u)

			// An order statistic is imprecise only if it fell where a
			// pruning rule could have clipped it: above a finite hi, or
			// below a positive lo (densities are non-negative, so lo ≤ 0
			// never prunes the low side).
			if du > res.hi {
				held := sort.SearchFloat64s(sorted, res.hi)
				rows = rowsAtOrAbove(vals, res.hi, rows[:0])
				res.hi = relaxUpper(res.hi, du, held, u, clipped, cfg)
				res.upperRetries++
			} else if res.lo > 0 && dl < res.lo {
				res.lo = scaleTowardZero(math.Min(res.lo, dl), cfg.HBackoff)
				rows = nil
			} else {
				// In extreme dimensionality the corrected densities can
				// cancel to zero; a non-positive upper bound cannot prune
				// and would poison later rounds, so it degrades to +Inf.
				res.hi = scaleTowardInf(du, cfg.HBuffer)
				if res.hi <= 0 {
					res.hi = math.Inf(1)
				}
				res.lo = scaleTowardZero(dl, cfg.HBuffer)
				break
			}
			if retries++; retries > maxRetriesPerRound {
				// Degenerate data can defeat multiplicative backoff (e.g.
				// a previous lo of exactly 0 never shrinks). Fall back to
				// unbounded, which makes the next attempt exact but safe.
				res.lo, res.hi = 0, math.Inf(1)
				retries = 0
				rows = nil
			}
		}
	}
	return res, nil
}

// quantilePass is what one of Algorithm 3's passes scores against a
// window on the corrected p-quantile: a KDE, the rows it scores, and
// the grid that may decide a row before the engine does. A bootstrap
// round draws its mini-KDE over r sampled rows and the min(S0, r) of
// them it scores once, and keeps both across its retries (drawRound);
// it has no grid. The full-size pass scores every training row against
// the serving KDE and its grid (fullPass).
type quantilePass struct {
	cfg    Config
	start  string
	kern   *kernel.Gaussian
	tree   *kdtree.Tree
	scored *points.Store
	self   float64 // the self-contribution K(0)/n of the KDE's n rows

	grid      *grid.Grid // nil: no grid check
	gridKDiag float64
}

// drawRound draws a round's r rows from data, fits their mini-KDE, and
// draws the rows the round scores from them.
func drawRound(data *points.Store, r int, cfg Config, rng *rand.Rand) (quantilePass, error) {
	xr := sampleRows(data, r, rng)
	kern, tree, err := buildKDE(xr, cfg)
	if err != nil {
		return quantilePass{}, err
	}
	return quantilePass{
		cfg:    cfg,
		start:  resolveBackend(data.Dim),
		kern:   kern,
		tree:   tree,
		scored: sampleRows(xr, min(cfg.S0, r), rng),
		self:   kern.AtZero() / float64(r),
	}, nil
}

// fullPass is TrainStore's full-size pass over c: every training row,
// scored against the serving KDE from the start that serves, with the
// grid check first.
func (c *Classifier) fullPass() quantilePass {
	return quantilePass{
		cfg:       c.cfg,
		start:     c.backend,
		kern:      c.kern,
		tree:      c.tree,
		scored:    c.data,
		self:      c.selfContrib,
		grid:      c.grid,
		gridKDiag: c.gridKDiag,
	}
}

// score writes the corrected density of each listed scored row (every
// row when rows is nil) into vals, bounded against the window (lo, hi).
// The window lives in corrected-density space (Equation 1) while
// BoundDensity prunes on plain densities: it is shifted by the
// self-contribution, so the pruning thresholds and the pass's validity
// checks refer to exactly the same quantity. The tolerance target stays
// ε·lo in corrected space. A row whose corrected grid bound exceeds a
// finite hi records that certified lower bound, which keeps its rank
// above any threshold inside the window.
//
// The rows fan out with forEachChunk, one engine per goroutine. A row's
// score depends only on the row and each row writes its own slot, so
// vals is the same at any worker count and with any row list.
func (p quantilePass) score(vals []float64, rows []int, lo, hi float64) QueryStats {
	tl, tu := lo+p.self, hi+p.self
	tolCut := p.cfg.Epsilon * math.Max(lo, 0)
	gridCheck := p.grid != nil && !math.IsInf(hi, 1)
	n := len(vals)
	if rows != nil {
		n = len(rows)
	}
	return forEachChunk(p.cfg.Workers, n, func(next func() (int, int), qs *QueryStats) {
		est := newDensityEstimator(p.tree, p.kern, p.cfg, p.start)
		for from, to := next(); from < to; from, to = next() {
			for k := from; k < to; k++ {
				i := k
				if rows != nil {
					i = rows[k]
				}
				x := p.scored.Row(i)
				if gridCheck {
					if lb := p.grid.LowerBoundDensity(x, p.gridKDiag) - p.self; lb > hi {
						qs.GridHit = true
						vals[i] = lb
						continue
					}
				}
				_, _, f := est.BoundDensity(x, tl, tu, tolCut, qs)
				vals[i] = f - p.self
			}
		}
	})
}

// rowsAtOrAbove appends to dst the index of every value at or above
// cut, in index order: the rows a window with upper bound cut may have
// decided HIGH, which a resumed attempt must re-score.
func rowsAtOrAbove(vals []float64, cut float64, dst []int) []int {
	for i, v := range vals {
		if v >= cut {
			dst = append(dst, i)
		}
	}
	return dst
}

// relaxUpper returns the upper bound a round retries with after its
// u-th order statistic du exceeded the carried bound hi (0 < hi < du:
// a carried bound is positive or +Inf); held of the sample's values lay
// below hi. A du more than HBackoff above hi jumps to HBackoff·du: a
// bound can be orders of magnitude off (Section 3.5).
//
// On the tree start du is clipped: the threshold rule stopped refining
// every row above hi at the midpoint of wide bounds, so du overstates
// the true statistic, by up to several times on drifting data. There
// the retry takes one geometric step, to √(hi·du), and grows hi by at
// least HBuffer so a nearly exact du cannot stall the search below the
// true statistic.
//
// On the near-first start (BackendSampling) a row decided above hi
// reports its certified lower bound, so du is a lower bound on the
// true statistic, and the retry steps to HBuffer·du. A retry resumes on
// its round's sample, so a step that falls short costs one more pass
// over the rows it clipped, not a new round. The exception is a window
// that already held at least ¾ of the u ranks: the statistic then lies
// in a wide upper tail (hep d=27 measured it up to 6.8× above du), where
// HBuffer·du falls short again and again, so the bound jumps to
// HBackoff·du.
func relaxUpper(hi, du float64, held, u int, clipped bool, cfg Config) float64 {
	switch {
	case du > cfg.HBackoff*hi:
		return cfg.HBackoff * du
	case clipped:
		return math.Max(math.Sqrt(hi*du), cfg.HBuffer*hi)
	case 4*held >= 3*u:
		return cfg.HBackoff * du
	}
	return cfg.HBuffer * du
}

// scaleTowardInf multiplicatively loosens an upper bound (larger for
// positive values, closer to zero for negative ones).
func scaleTowardInf(x, factor float64) float64 {
	if x >= 0 {
		return x * factor
	}
	return x / factor
}

// scaleTowardZero multiplicatively loosens a lower bound (smaller for
// positive values, more negative for negative ones).
func scaleTowardZero(x, factor float64) float64 {
	if x >= 0 {
		return x / factor
	}
	return x * factor
}

// sampleRows draws k rows without replacement into a fresh store
// (points.SampleSlots). When k covers the whole store it returns s
// itself and draws nothing, so callers must only read the result.
func sampleRows(s *points.Store, k int, rng *rand.Rand) *points.Store {
	if k >= s.Len() {
		return s
	}
	out := points.New(k, s.Dim)
	points.SampleSlots(rng, s.Len(), k, func(i, slot int) {
		copy(out.Row(i), s.Row(slot))
	})
	return out
}
