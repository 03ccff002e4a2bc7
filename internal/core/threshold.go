package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

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
// Each round's score loop fans the sample rows out with forEachChunk,
// one private density backend per goroutine. Sampling (the only RNG
// consumer) stays sequential, every row's density depends only on the
// row, and each block writes disjoint density slots, so the bounds are
// bit-identical to a single-threaded run.
func boundThreshold(data *points.Store, cfg Config, rng *rand.Rand) (thresholdBound, error) {
	n := data.Len()
	res := thresholdBound{lo: 0, hi: math.Inf(1)}
	spanWorkers := max(effectiveWorkers(cfg.Workers), 1)
	start := resolveBackend(data.Dim)
	clipped := start == BackendTree

	const maxRetriesPerRound = 25
	retries := 0
	// densities is reused across rounds: sEff only grows (up to S0), so
	// the buffer settles after a few rounds instead of reallocating per
	// round.
	var densities []float64
	for r := cfg.R0; r < n; {
		res.rounds++
		roundStart := time.Now()
		kernelsBefore := res.queries.Kernels()
		xr := sampleRows(data, r, rng)
		rkern, rtree, err := buildKDE(xr, cfg)
		if err != nil {
			return res, err
		}

		sEff := min(cfg.S0, r)
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
		res.queries.add(forEachChunk(cfg.Workers, sEff, func(next func() (int, int), qs *QueryStats) {
			est := NewBackend(rtree, rkern, cfg, start)
			for lo, hi := next(); lo < hi; lo, hi = next() {
				for i := lo; i < hi; i++ {
					_, _, f := est.BoundDensity(xs.Row(i), res.lo+selfContrib, res.hi+selfContrib, tolCut, qs)
					densities[i] = f - selfContrib
				}
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
			res.hi = relaxUpper(res.hi, du, clipped, cfg)
			res.upperRetries++
			retries++
		case res.lo > 0 && dl < res.lo:
			res.lo = scaleTowardZero(math.Min(res.lo, dl), cfg.HBackoff)
			retries++
		default:
			// In extreme dimensionality the corrected densities can
			// cancel to zero; a non-positive upper bound cannot prune
			// and would poison later rounds, so it degrades to +Inf.
			res.hi = scaleTowardInf(du, cfg.HBuffer)
			if res.hi <= 0 {
				res.hi = math.Inf(1)
			}
			res.lo = scaleTowardZero(dl, cfg.HBuffer)
			retries = 0
			// Grow by at least one row: int(r·HGrowth) truncates back
			// to r when HGrowth < 1 + 1/r.
			r = max(r+1, int(float64(r)*cfg.HGrowth))
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
	return res, nil
}

// relaxUpper returns the upper bound a round retries with after its
// u-th order statistic du exceeded the carried bound hi (0 < hi < du:
// a carried bound is positive or +Inf). On the tree backend du is
// clipped: the threshold rule stopped refining every row above hi at
// the midpoint of wide bounds, so du overstates the true statistic, by
// up to several times on drifting data. There, when du is within
// HBackoff of hi, the retry takes one geometric step, to √(hi·du), and
// grows hi by at least HBuffer so a nearly exact du cannot stall the
// search below the true statistic; a too-tight retry stays cheap
// because rows far above hi prune at the first boxes. Otherwise the
// bound jumps to HBackoff·du: a bound can be orders of magnitude off
// (Section 3.5), and on the near-first start (BackendSampling) a step
// below du would fail again at the full price of a round. There du does
// not overstate the statistic: a row decided above hi reports its
// certified lower bound, so du is a lower bound on the true statistic.
func relaxUpper(hi, du float64, clipped bool, cfg Config) float64 {
	if clipped && du <= cfg.HBackoff*hi {
		return math.Max(math.Sqrt(hi*du), cfg.HBuffer*hi)
	}
	return cfg.HBackoff * du
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
