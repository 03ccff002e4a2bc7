package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
	"tkdc/internal/telemetry"
)

// buildSamplerIndex constructs a store, tree, and Scott-bandwidth
// Gaussian kernel over n points of dimension d drawn N(0, 1).
func buildSamplerIndex(t *testing.T, seed int64, n, d int) (*kdtree.Tree, *kernel.Gaussian) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	store := points.New(n, d)
	for i := 0; i < n; i++ {
		row := store.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	tree, err := kdtree.Build(store, kdtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := kernel.ScottBandwidths(store, 1)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := kernel.NewGaussian(h)
	if err != nil {
		t.Fatal(err)
	}
	return tree, kern
}

// samplerConfig is DefaultConfig with the sampler's seed and δ.
func samplerConfig(seed int64, delta float64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Delta = delta
	return cfg
}

// TestSamplerNearRadius checks the bisection finds the scaled distance
// where the kernel decays to cut·K(0): for the Gaussian that is
// −2·ln(cut).
func TestSamplerNearRadius(t *testing.T) {
	h := []float64{1, 1, 1}
	g, err := kernel.NewGaussian(h)
	if err != nil {
		t.Fatal(err)
	}
	got := nearRadiusSq(g, 1e-3)
	want := -2 * math.Log(1e-3)
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("nearRadiusSq = %v, want %v", got, want)
	}
}

// TestSamplerDeterministicPerQuery checks two independent samplers agree
// bit-for-bit on every query, and that query order does not matter —
// the per-query seeding retrains and replicas rely on.
func TestSamplerDeterministicPerQuery(t *testing.T) {
	tree, kern := buildSamplerIndex(t, 11, 5000, 12)
	a := newSampler(tree, kern, samplerConfig(7, 0.01))
	b := newSampler(tree, kern, samplerConfig(7, 0.01))
	rng := rand.New(rand.NewSource(3))
	queries := make([][]float64, 32)
	for i := range queries {
		q := make([]float64, 12)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		queries[i] = q
	}
	var w QueryStats
	type triple struct{ fl, fu, est float64 }
	got := make([]triple, len(queries))
	for i, q := range queries {
		fl, fu, est := a.BoundDensity(q, 0, math.Inf(1), 0, &w)
		got[i] = triple{fl, fu, est}
	}
	// b serves the queries in reverse order; results must still match.
	for i := len(queries) - 1; i >= 0; i-- {
		fl, fu, est := b.BoundDensity(queries[i], 0, math.Inf(1), 0, &w)
		if got[i] != (triple{fl, fu, est}) {
			t.Fatalf("query %d: (%v,%v,%v) != (%v,%v,%v)",
				i, fl, fu, est, got[i].fl, got[i].fu, got[i].est)
		}
	}
	// A different seed must actually change the sampling.
	c := newSampler(tree, kern, samplerConfig(8, 0.01))
	same := 0
	for i, q := range queries {
		_, _, est := c.BoundDensity(q, 0, math.Inf(1), 0, &w)
		if est == got[i].est {
			same++
		}
	}
	if same == len(queries) {
		t.Fatal("seed change left every estimate identical")
	}
}

// TestSamplerBoundsBracketExact draws many queries and checks the
// probabilistic bounds bracket the exact density at well above the 1−δ
// rate, and that the point estimate stays inside the bounds.
func TestSamplerBoundsBracketExact(t *testing.T) {
	tree, kern := buildSamplerIndex(t, 5, 4000, 10)
	s := newSampler(tree, kern, samplerConfig(1, 0.05))
	rng := rand.New(rand.NewSource(9))
	misses := 0
	const trials = 300
	var w QueryStats
	for i := 0; i < trials; i++ {
		q := make([]float64, 10)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		// tl=0, tu=∞ keeps every stopping rule from firing, so the full
		// sample budget is spent and the final band is tested.
		fl, fu, est := s.BoundDensity(q, 0, math.Inf(1), 0, &w)
		f := exactDensity(tree.Pts, kern, q)
		// The exact-resolution path sums in tree order, the reference in
		// flat order; allow summation-order rounding at the interval ends.
		if tol := 1e-9 * f; fl > f+tol || f > fu+tol {
			misses++
		}
		if est < fl || est > fu {
			t.Fatalf("query %d: est %v outside [%v, %v]", i, est, fl, fu)
		}
	}
	// δ=0.05 permits ~15 misses in expectation; the empirical-Bernstein
	// band is conservative, so even 2δ·trials signals a real defect.
	if misses > trials/10 {
		t.Fatalf("bounds missed the exact density %d/%d times (δ=0.05)", misses, trials)
	}
}

// TestSamplerSmallDatasetExact checks the exact-sweep fallback: with n
// below the sampling break-even the bounds collapse to the exact density.
func TestSamplerSmallDatasetExact(t *testing.T) {
	tree, kern := buildSamplerIndex(t, 6, 100, 6)
	s := newSampler(tree, kern, samplerConfig(2, 0.01))
	q := make([]float64, 6)
	var w QueryStats
	fl, fu, est := s.BoundDensity(q, 0, math.Inf(1), 0, &w)
	f := exactDensity(tree.Pts, kern, q)
	if fl != f || fu != f || est != f {
		t.Fatalf("small-n fallback: (%v, %v, %v) != exact %v", fl, fu, est, f)
	}
}

// TestSamplerEstimateDensityHonorsPrecision checks EstimateDensity's
// contract: the returned bounds satisfy fu − fl ≤ rel·fl even when that
// requires the exact fallback.
func TestSamplerEstimateDensityHonorsPrecision(t *testing.T) {
	tree, kern := buildSamplerIndex(t, 8, 3000, 8)
	s := newSampler(tree, kern, samplerConfig(3, 0.01))
	rng := rand.New(rand.NewSource(4))
	var w QueryStats
	for i := 0; i < 20; i++ {
		q := make([]float64, 8)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		rel := 0.01
		fl, fu, est := s.EstimateDensity(q, rel, &w)
		if fu-fl > rel*fl {
			t.Fatalf("query %d: width %v exceeds rel %v · fl %v", i, fu-fl, rel, fl)
		}
		if est < fl || est > fu {
			t.Fatalf("query %d: est %v outside [%v, %v]", i, est, fl, fu)
		}
	}
	// rel ≤ 0 demands exactness (up to summation order: the fallback
	// sums near and far ranges separately).
	q := make([]float64, 8)
	fl, fu, _ := s.EstimateDensity(q, 0, &w)
	f := exactDensity(tree.Pts, kern, q)
	if fl != fu || math.Abs(fl-f) > 1e-9*f {
		t.Fatalf("rel=0: (%v, %v) != exact %v", fl, fu, f)
	}
}

// TestSamplerThresholdRuleStopsEarly checks the adaptive budget: a query
// whose band clears the threshold at the first check spends only the
// minimum sample batch, while the same query against an undecidable band
// runs to samplerMaxSamples. The near phase is identical in both runs, so
// the saving is exactly the sample difference.
func TestSamplerThresholdRuleStopsEarly(t *testing.T) {
	tree, kern := buildSamplerIndex(t, 12, 20000, 10)
	s := newSampler(tree, kern, samplerConfig(5, 0.01))

	// A central query has near-field mass, so fl > 0 ≥ tu fires the
	// threshold rule at the first band.
	var wEasy QueryStats
	center := make([]float64, 10)
	flEasy, _, _ := s.BoundDensity(center, 1e-300, 1e-300, 0, &wEasy)
	if flEasy <= 1e-300 {
		t.Fatalf("central query fl = %v, expected positive near-field mass", flEasy)
	}

	// tl=0, tu=∞ makes both rules unreachable: the budget runs out.
	var wHard QueryStats
	s.BoundDensity(center, 0, math.Inf(1), 0, &wHard)

	saved := wHard.PointKernels - wEasy.PointKernels
	if saved < int64(samplerMaxSamples-2*samplerMinSamples) {
		t.Fatalf("threshold rule saved only %d point kernels (easy %d, hard %d)",
			saved, wEasy.PointKernels, wHard.PointKernels)
	}

	// A far outlier is certified zero by support pruning alone: no
	// kernel evaluations at all.
	var wOut QueryStats
	out := make([]float64, 10)
	for j := range out {
		out[j] = 50
	}
	fl, fu, est := s.BoundDensity(out, 1e-300, 1e-300, 0, &wOut)
	if fl != 0 || fu != 0 || est != 0 {
		t.Fatalf("outlier: (%v, %v, %v), want certified zero", fl, fu, est)
	}
	if wOut.PointKernels != 0 {
		t.Fatalf("outlier cost %d point kernels, want 0 (support pruning)", wOut.PointKernels)
	}
}

// TestSamplerWorkCountsSamples checks the work accounting covers all
// three effort kinds: near-field point sums plus far-field samples, bound
// evaluations for far ranges, and near-phase node visits.
func TestSamplerWorkCountsSamples(t *testing.T) {
	tree, kern := buildSamplerIndex(t, 13, 5000, 10)
	// A small node budget guarantees an unresolved far field even on a
	// tree this size.
	s := newSampler(tree, kern, samplerConfig(6, 0.01))
	s.nearNodes = 16
	var w QueryStats
	q := make([]float64, 10)
	s.BoundDensity(q, 0, math.Inf(1), 0, &w)
	if w.PointKernels < int64(samplerMaxSamples) {
		t.Fatalf("PointKernels %d below the exhausted sample budget %d", w.PointKernels, samplerMaxSamples)
	}
	if w.NodesVisited == 0 {
		t.Fatal("near-field traversal recorded no node visits")
	}
	if w.BoundKernels == 0 {
		t.Fatal("no bound kernels recorded despite an unresolved far field")
	}
}

// TestSamplerNearPhasePartition cross-checks the budgeted near phase
// against brute force: the exact near sum plus the true kernel mass of
// the far ranges must reconstruct the exact density (rows in neither are
// support-pruned, contributing exactly zero), the certified value bound
// rmax must dominate every far row's kernel, and the range table must
// map population indices onto its own rows.
func TestSamplerNearPhasePartition(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{2000, 4}, {2000, 16}} {
		tree, kern := buildSamplerIndex(t, 14, tc.n, tc.d)
		s := newSampler(tree, kern, samplerConfig(7, 0.01))
		rng := rand.New(rand.NewSource(15))
		invH2 := kern.InvBandwidthsSq()
		for i := 0; i < 10; i++ {
			q := make([]float64, tc.d)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			var w QueryStats
			sumNear := s.nearPhase(q, math.Inf(1), &w)

			farTrue := 0.0
			kmax := 0.0
			rows := 0
			for _, r := range s.far.ranges {
				if r.cum != rows {
					t.Fatalf("d=%d query %d: range cum %d != running count %d", tc.d, i, r.cum, rows)
				}
				rows += int(r.hi - r.lo)
				for row := int(r.lo); row < int(r.hi); row++ {
					k := kern.FromScaledSqDist(kernel.ScaledSqDist(q, tree.Pts.Row(row), invH2))
					farTrue += k
					if k > kmax {
						kmax = k
					}
				}
			}
			if rows != s.far.count {
				t.Fatalf("d=%d query %d: far count %d != range rows %d", tc.d, i, s.far.count, rows)
			}
			if kmax > s.far.rmax {
				t.Fatalf("d=%d query %d: far kernel %v exceeds certified bound %v", tc.d, i, kmax, s.far.rmax)
			}
			want := exactDensity(tree.Pts, kern, q) * float64(tree.Size)
			got := sumNear + farTrue
			if math.Abs(got-want) > 1e-9*math.Max(want, 1e-300) {
				t.Fatalf("d=%d query %d: near %v + far %v = %v != exact mass %v",
					tc.d, i, sumNear, farTrue, got, want)
			}
			if s.far.count > 0 {
				for _, u := range []int{0, s.far.count / 2, s.far.count - 1} {
					row := s.farRow(u)
					ok := false
					for _, r := range s.far.ranges {
						if row >= int(r.lo) && row < int(r.hi) {
							ok = true
							break
						}
					}
					if !ok {
						t.Fatalf("d=%d query %d: farRow(%d) = %d outside every range", tc.d, i, u, row)
					}
				}
			}
		}
	}
}

// TestSamplerFarRoundAccountingAndTrace pins the observability contract
// of the sampling loop: SamplingRounds counts exactly the adaptive
// rounds, SampledPoints the far-field draws (a subset of PointKernels),
// and a trace attached to the QueryStats sees one "near" stage followed
// by one "far/round-N" stage per round with a shrinking-or-equal
// cumulative sample count. Accounting must not perturb the estimate: a
// traced and an untraced run of the same query agree bit-for-bit.
func TestSamplerFarRoundAccountingAndTrace(t *testing.T) {
	tree, kern := buildSamplerIndex(t, 16, 5000, 10)
	q := make([]float64, 10)

	s := newSampler(tree, kern, samplerConfig(9, 0.01))
	s.nearNodes = 16
	tr := &telemetry.QueryTrace{}
	w := QueryStats{Trace: tr}
	// Unreachable threshold band + no tolerance: the loop runs until the
	// sample budget is exhausted, maximizing rounds.
	fl, fu, _ := s.BoundDensity(q, 0, math.Inf(1), 0, &w)

	if w.SamplingRounds == 0 {
		t.Fatal("no far rounds recorded despite exhausted budget")
	}
	if w.SampledPoints <= 0 || w.SampledPoints > w.PointKernels {
		t.Fatalf("SampledPoints = %d, want in (0, PointKernels=%d]", w.SampledPoints, w.PointKernels)
	}
	if len(tr.Stages) != int(w.SamplingRounds)+1 {
		t.Fatalf("%d stages for %d rounds, want rounds+1 (near stage first)", len(tr.Stages), w.SamplingRounds)
	}
	if tr.Stages[0].Name != "near" {
		t.Fatalf("first stage = %q, want near", tr.Stages[0].Name)
	}
	prev := int64(0)
	for i, st := range tr.Stages[1:] {
		if want := fmt.Sprintf("far/round-%d", i+1); st.Name != want {
			t.Fatalf("stage %d name = %q, want %q", i+1, st.Name, want)
		}
		if st.Samples < prev {
			t.Fatalf("round %d cumulative samples %d < previous %d", i+1, st.Samples, prev)
		}
		prev = st.Samples
		if st.Band != st.Upper-st.Lower {
			t.Fatalf("round %d band %g != upper-lower %g", i+1, st.Band, st.Upper-st.Lower)
		}
	}
	last := tr.Stages[len(tr.Stages)-1]
	if last.Samples != w.SampledPoints {
		t.Fatalf("final round samples %d != SampledPoints %d", last.Samples, w.SampledPoints)
	}
	if last.Lower != fl || last.Upper != fu {
		t.Fatalf("final round bounds [%g, %g] != returned [%g, %g]", last.Lower, last.Upper, fl, fu)
	}

	// Bit-exactness: tracing must be purely observational.
	s2 := newSampler(tree, kern, samplerConfig(9, 0.01))
	s2.nearNodes = 16
	var w2 QueryStats
	fl2, fu2, _ := s2.BoundDensity(q, 0, math.Inf(1), 0, &w2)
	if fl2 != fl || fu2 != fu {
		t.Fatalf("untraced run differs: [%g, %g] vs [%g, %g]", fl2, fu2, fl, fu)
	}
	if w2.SamplingRounds != w.SamplingRounds || w2.SampledPoints != w.SampledPoints {
		t.Fatalf("untraced accounting differs: rounds %d vs %d, samples %d vs %d",
			w2.SamplingRounds, w.SamplingRounds, w2.SampledPoints, w.SampledPoints)
	}
}

// TestSamplerEnvelopeDecidedAnswersCertified checks the answers the
// certified envelope decides without a sample. Queries are half training rows,
// half fresh draws; thresholds sit at the 1st, 50th and 99th percentile
// of their exact densities and at one query's own exact density, where no
// certified interval can decide. Every answer that drew no sample must
// bracket the exact density, whatever the far field's size, and report
// its decided side's bound: fl above tu, fu below tl, the midpoint when
// only the tolerance rule fired. Some answers must come from a far field
// larger than samplerMinSamples, the population that was sampled before
// the envelope was tested.
func TestSamplerEnvelopeDecidedAnswersCertified(t *testing.T) {
	for _, d := range []int{2, 8, 27} {
		tree, kern := buildSamplerIndex(t, 5, 4000, d)
		s := newSampler(tree, kern, samplerConfig(1, 0.05))
		rng := rand.New(rand.NewSource(9))
		queries := make([][]float64, 200)
		for i := range queries {
			if i%2 == 0 {
				queries[i] = tree.Pts.Row(rng.Intn(tree.Size))
				continue
			}
			q := make([]float64, d)
			for j := range q {
				q[j] = 1.5 * rng.NormFloat64()
			}
			queries[i] = q
		}
		exacts := make([]float64, len(queries))
		for i, q := range queries {
			exacts[i] = exactDensity(tree.Pts, kern, q)
		}
		sorted := append([]float64(nil), exacts...)
		sort.Float64s(sorted)
		thresholds := []float64{sorted[1], sorted[99], sorted[197], exacts[1]}

		decided := 0
		for _, th := range thresholds {
			tolCut := 0.01 * th
			for i, q := range queries {
				var w QueryStats
				fl, fu, est := s.BoundDensity(q, th, th, tolCut, &w)
				if w.SampledPoints != 0 {
					continue
				}
				if s.far.count > samplerMinSamples {
					decided++
				}
				f := exacts[i]
				if tol := 1e-9 * f; fl > f+tol || f > fu+tol {
					t.Fatalf("d=%d t=%g query %d: unsampled [%g, %g] misses exact %g", d, th, i, fl, fu, f)
				}
				switch {
				case fl == fu:
					// Summed exactly: nothing left to decide.
				case fl > th:
					if est != fl {
						t.Fatalf("d=%d t=%g query %d: HIGH by envelope, est %g != fl %g", d, th, i, est, fl)
					}
				case fu < th:
					if est != fu {
						t.Fatalf("d=%d t=%g query %d: LOW by envelope, est %g != fu %g", d, th, i, est, fu)
					}
				case fu-fl < tolCut:
					if est != 0.5*(fl+fu) {
						t.Fatalf("d=%d t=%g query %d: tolerance stop, est %g != midpoint of [%g, %g]", d, th, i, est, fl, fu)
					}
				default:
					t.Fatalf("d=%d t=%g query %d: no sample and no rule met by [%g, %g]", d, th, i, fl, fu)
				}
			}
		}
		t.Logf("d=%d: %d envelope-decided answers over a far field > samplerMinSamples", d, decided)
		if decided == 0 {
			t.Fatalf("d=%d: the envelope decided no query whose far field exceeds samplerMinSamples", d)
		}
	}
}
