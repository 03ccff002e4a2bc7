package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
	"tkdc/internal/stats"
	"tkdc/internal/telemetry"
)

// thresholdBound is the outcome of Algorithm 3: probabilistic bounds on
// t(p) for the full-dataset KDE, valid with probability ≥ 1−δ.
type thresholdBound struct {
	lo, hi  float64
	rounds  int // bootstrap rounds run (including retries)
	queries QueryStats
	// spans traces each round (including retries): duration, kernel
	// evaluations, and the subsample size it trained on.
	spans []telemetry.Span
}

// boundThreshold is Algorithm 3. It bootstraps bounds on the quantile
// threshold t(p) by training mini-KDEs on geometrically growing
// subsamples: quantile bounds estimated on a small subsample make density
// evaluation on the next, larger subsample cheap, because the pruning
// rules of Algorithm 2 can fire. Bounds that turn out invalid for the
// larger sample are multiplicatively backed off and the round retried.
//
// kern and tree are the serving KDE over all of data. A round whose
// subsample has grown to the whole dataset would fit exactly that KDE,
// so it scores against them instead of building its own.
//
// Each round's score loop fans the sample rows out with forEachChunk,
// one private density backend per chunk. Sampling (the only RNG
// consumer) stays sequential and each chunk writes disjoint density
// slots, so the bounds are bit-identical to a single-threaded run.
func boundThreshold(data *points.Store, kern kernel.Kernel, tree *kdtree.Tree, cfg Config, rng *rand.Rand) (thresholdBound, error) {
	n := data.Len()
	res := thresholdBound{lo: 0, hi: math.Inf(1)}
	spanWorkers := max(effectiveWorkers(cfg.Workers), 1)

	r := cfg.R0
	if r > n {
		r = n
	}
	const maxRetriesPerRound = 25
	retries := 0
	// densities is reused across rounds: sEff only grows (up to S0), so
	// the buffer settles after a few rounds instead of reallocating per
	// round.
	var densities []float64
	for {
		res.rounds++
		roundStart := time.Now()
		kernelsBefore := res.queries.Kernels()
		xr, rkern, rtree := data, kern, tree
		if r < n {
			xr = sampleRows(data, r, rng)
			var err error
			if rkern, rtree, err = buildKDE(xr, cfg); err != nil {
				return res, err
			}
		}

		sEff := cfg.S0
		if sEff > r {
			sEff = r
		}
		xs := sampleRows(xr, sEff, rng)

		// The bounds live in corrected-density space (Equation 1) while
		// BoundDensity prunes on plain densities: shift by the
		// self-contribution so the pruning thresholds and the validity
		// checks below refer to exactly the same quantity. The tolerance
		// target stays ε·t in corrected space.
		selfContrib := rkern.AtZero() / float64(r)
		tolCut := cfg.Epsilon * math.Max(res.lo, 0)
		if cap(densities) < sEff {
			densities = make([]float64, sEff)
		}
		densities = densities[:sEff]
		res.queries.add(forEachChunk(cfg.Workers, sEff, func(lo, hi int, qs *QueryStats) {
			est := newQueryBackend(rtree, rkern, cfg)
			for i := lo; i < hi; i++ {
				_, _, f := est.BoundDensity(xs.Row(i), res.lo+selfContrib, res.hi+selfContrib, tolCut, qs)
				densities[i] = f - selfContrib
			}
		}))
		sort.Float64s(densities)

		res.spans = append(res.spans, telemetry.Span{
			Name:     fmt.Sprintf("bootstrap/round-%02d", res.rounds),
			Duration: time.Since(roundStart),
			Kernels:  res.queries.Kernels() - kernelsBefore,
			Items:    int64(r),
			Workers:  spanWorkers,
		})

		l, u, err := stats.QuantileCIIndices(sEff, cfg.P, cfg.Delta)
		if err != nil {
			return res, fmt.Errorf("core: threshold bootstrap quantile CI: %w", err)
		}
		dl, _ := stats.SortedOrderStatistic(densities, l)
		du, _ := stats.SortedOrderStatistic(densities, u)

		// An order statistic is imprecise only if it fell where a pruning
		// rule could have clipped it: above a finite hi, or below a
		// positive lo (densities are non-negative, so lo ≤ 0 never prunes
		// the low side).
		switch {
		case du > res.hi:
			// Upper bound was too tight for this sample size. Relax past
			// the (over-estimated) order statistic we observed and retry
			// the round — bounds carried between rounds can be off by
			// many orders of magnitude (Section 3.5), so pure
			// multiplicative backoff would need dozens of retries. A
			// non-positive bound cannot be grown multiplicatively; give
			// up on that side entirely.
			res.hi = scaleTowardInf(math.Max(res.hi, du), cfg.HBackoff)
			if res.hi <= 0 || math.IsNaN(res.hi) {
				res.hi = math.Inf(1)
			}
			retries++
		case res.lo > 0 && dl < res.lo:
			res.lo = scaleTowardZero(math.Min(res.lo, dl), cfg.HBackoff)
			retries++
		default:
			if r >= n {
				// Final round ran against the full dataset: dl and du are
				// the 1−δ bounds on t(p) (Section 3.5). In extreme
				// dimensionality the corrected densities can cancel to
				// zero; a non-positive upper bound cannot prune and would
				// poison later passes, so it degrades to +Inf.
				res.lo = dl
				res.hi = du
				if res.hi <= 0 {
					res.hi = math.Inf(1)
				}
				return res, nil
			}
			res.hi = scaleTowardInf(du, cfg.HBuffer)
			if res.hi <= 0 {
				res.hi = math.Inf(1)
			}
			res.lo = scaleTowardZero(dl, cfg.HBuffer)
			retries = 0
			r = int(float64(r) * cfg.HGrowth)
			if r > n {
				r = n
			}
			continue
		}
		if retries > maxRetriesPerRound {
			// Degenerate data can defeat multiplicative backoff (e.g. a
			// previous lo of exactly 0 never shrinks). Fall back to
			// unbounded, which makes the next pass exact but safe.
			res.lo, res.hi = 0, math.Inf(1)
			retries = 0
		}
	}
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

// sampleRows draws k rows without replacement into a fresh store using a
// partial Fisher–Yates shuffle over an index array. When k covers the
// whole store it returns s itself and draws nothing, so callers must
// only read the result. The RNG consumption order matches the historical
// slice-of-rows implementation, keeping trained models bit-identical
// across the storage refactor.
func sampleRows(s *points.Store, k int, rng *rand.Rand) *points.Store {
	n := s.Len()
	if k >= n {
		return s
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := points.New(k, s.Dim)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		copy(out.Row(i), s.Row(idx[i]))
	}
	return out
}
