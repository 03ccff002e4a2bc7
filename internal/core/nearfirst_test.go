package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
	"tkdc/internal/telemetry"
)

// buildNearFirstIndex constructs a store, tree, and Scott-bandwidth
// Gaussian kernel over n points of dimension d drawn N(0, 1).
func buildNearFirstIndex(t *testing.T, seed int64, n, d int) (*kdtree.Tree, *kernel.Gaussian) {
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

// normalQueries draws n queries of dimension d, each coordinate
// scale·N(0, 1).
func normalQueries(rng *rand.Rand, n, d int, scale float64) [][]float64 {
	qs := make([][]float64, n)
	for i := range qs {
		q := make([]float64, d)
		for j := range q {
			q[j] = scale * rng.NormFloat64()
		}
		qs[i] = q
	}
	return qs
}

// brackets reports whether [fl, fu] contains f, up to the rounding that
// separates sums taken in different orders.
func brackets(fl, fu, f float64) bool {
	tol := 1e-9 * f
	return fl <= f+tol && f <= fu+tol
}

// TestNearFirstNearRadius checks the bisection finds the scaled distance
// where the kernel decays to cut·K(0): for the Gaussian that is
// −2·ln(cut).
func TestNearFirstNearRadius(t *testing.T) {
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

// TestNearFirstDeterministicPerQuery checks two independent engines
// agree bit for bit on every query whatever the order the queries come
// in, so the scratch one query leaves cannot reach the next, and that
// Config.Seed changes no answer: no engine draws a random number.
func TestNearFirstDeterministicPerQuery(t *testing.T) {
	tree, kern := buildNearFirstIndex(t, 11, 5000, 12)
	cfg := DefaultConfig()
	a := newDensityEstimator(tree, kern, cfg, BackendSampling)
	b := newDensityEstimator(tree, kern, cfg, BackendSampling)
	cfg.Seed = 8
	c := newDensityEstimator(tree, kern, cfg, BackendSampling)
	queries := normalQueries(rand.New(rand.NewSource(3)), 32, 12, 1)
	// A threshold inside the densities' range leaves work for the loop.
	th := exactDensity(tree.Pts, kern, queries[0])
	var w QueryStats
	type triple struct{ fl, fu, est float64 }
	got := make([]triple, len(queries))
	for i, q := range queries {
		fl, fu, est := a.BoundDensity(q, th, th, 0.01*th, &w)
		got[i] = triple{fl, fu, est}
	}
	// b serves the queries in reverse order; results must still match.
	for i := len(queries) - 1; i >= 0; i-- {
		fl, fu, est := b.BoundDensity(queries[i], th, th, 0.01*th, &w)
		if got[i] != (triple{fl, fu, est}) {
			t.Fatalf("query %d: (%v,%v,%v) != (%v,%v,%v)",
				i, fl, fu, est, got[i].fl, got[i].fu, got[i].est)
		}
	}
	for i, q := range queries {
		fl, fu, est := c.BoundDensity(q, th, th, 0.01*th, &w)
		if got[i] != (triple{fl, fu, est}) {
			t.Fatalf("query %d: another seed answered (%v,%v,%v), want (%v,%v,%v)",
				i, fl, fu, est, got[i].fl, got[i].fu, got[i].est)
		}
	}
}

// TestNearFirstBoundsBracketExact draws many queries and checks every
// answer's bounds bracket the exact density, both when the loop runs
// until the heap is empty and when a threshold at the median density
// stops it early, and that the point estimate stays inside the bounds.
func TestNearFirstBoundsBracketExact(t *testing.T) {
	tree, kern := buildNearFirstIndex(t, 5, 4000, 10)
	s := newDensityEstimator(tree, kern, DefaultConfig(), BackendSampling)
	queries := normalQueries(rand.New(rand.NewSource(9)), 300, 10, 1)
	exacts := make([]float64, len(queries))
	for i, q := range queries {
		exacts[i] = exactDensity(tree.Pts, kern, q)
	}
	sorted := append([]float64(nil), exacts...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	misses := 0
	var w QueryStats
	for i, q := range queries {
		// tl=0, tu=∞ keeps every stopping rule from firing; the median
		// threshold decides most queries early.
		for _, r := range [][3]float64{{0, math.Inf(1), 0}, {median, median, 0.01 * median}} {
			fl, fu, est := s.BoundDensity(q, r[0], r[1], r[2], &w)
			if !brackets(fl, fu, exacts[i]) {
				misses++
			}
			if est < fl || est > fu {
				t.Fatalf("query %d: est %v outside [%v, %v]", i, est, fl, fu)
			}
		}
	}
	if misses > 0 {
		t.Fatalf("bounds missed the exact density %d/%d times", misses, 2*len(queries))
	}
}

// TestNearFirstSmallDatasetExact checks an emptied heap: with no rule
// able to fire, the loop resolves every row and returns the exact sum,
// with fl, fu and the estimate equal.
func TestNearFirstSmallDatasetExact(t *testing.T) {
	tree, kern := buildNearFirstIndex(t, 6, 100, 6)
	s := newDensityEstimator(tree, kern, DefaultConfig(), BackendSampling)
	q := make([]float64, 6)
	var w QueryStats
	fl, fu, est := s.BoundDensity(q, 0, math.Inf(1), 0, &w)
	f := exactDensity(tree.Pts, kern, q)
	if fl != fu || est != fl || math.Abs(fl-f) > 1e-12*f {
		t.Fatalf("exhausted heap: (%v, %v, %v), want all equal to exact %v", fl, fu, est, f)
	}
}

// TestNearFirstEstimateDensityHonorsPrecision checks EstimateDensity's
// contract: the returned bounds satisfy fu − fl ≤ rel·fl, and rel ≤ 0
// returns the exact density.
func TestNearFirstEstimateDensityHonorsPrecision(t *testing.T) {
	tree, kern := buildNearFirstIndex(t, 8, 3000, 8)
	s := newDensityEstimator(tree, kern, DefaultConfig(), BackendSampling)
	var w QueryStats
	for i, q := range normalQueries(rand.New(rand.NewSource(4)), 20, 8, 1) {
		rel := 0.01
		fl, fu, est := s.EstimateDensity(q, rel, &w)
		if fu-fl > rel*fl {
			t.Fatalf("query %d: width %v exceeds rel %v · fl %v", i, fu-fl, rel, fl)
		}
		if est < fl || est > fu {
			t.Fatalf("query %d: est %v outside [%v, %v]", i, est, fl, fu)
		}
		if f := exactDensity(tree.Pts, kern, q); !brackets(fl, fu, f) {
			t.Fatalf("query %d: [%v, %v] misses exact %v", i, fl, fu, f)
		}
	}
	// rel ≤ 0 demands exactness, up to summation order.
	q := make([]float64, 8)
	fl, fu, _ := s.EstimateDensity(q, 0, &w)
	f := exactDensity(tree.Pts, kern, q)
	if fl != fu || math.Abs(fl-f) > 1e-9*f {
		t.Fatalf("rel=0: (%v, %v) != exact %v", fl, fu, f)
	}
}

// TestNearFirstThresholdRuleStopsEarly checks the threshold rule pays: a
// central query against a threshold far below its density stops after
// a fraction of the kernels the same query costs when no rule can fire,
// and a far outlier is certified zero by support pruning alone.
func TestNearFirstThresholdRuleStopsEarly(t *testing.T) {
	tree, kern := buildNearFirstIndex(t, 12, 20000, 10)
	s := newDensityEstimator(tree, kern, DefaultConfig(), BackendSampling)

	// A central query has near-field mass, so fl > tu fires the
	// threshold rule in the near phase.
	var wEasy QueryStats
	center := make([]float64, 10)
	flEasy, _, _ := s.BoundDensity(center, 1e-300, 1e-300, 0, &wEasy)
	if flEasy <= 1e-300 {
		t.Fatalf("central query fl = %v, expected positive near-field mass", flEasy)
	}

	// tl=0, tu=∞ makes every rule unreachable: the heap runs dry.
	var wHard QueryStats
	s.BoundDensity(center, 0, math.Inf(1), 0, &wHard)
	if 10*wEasy.PointKernels > wHard.PointKernels {
		t.Fatalf("threshold rule saved too little: easy %d point kernels, hard %d",
			wEasy.PointKernels, wHard.PointKernels)
	}

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

// TestNearFirstWorkCounts checks the work accounting covers all three
// effort kinds when the near phase leaves a frontier: exact point sums,
// bound evaluations for frontier nodes, and node visits in both phases.
func TestNearFirstWorkCounts(t *testing.T) {
	tree, kern := buildNearFirstIndex(t, 13, 5000, 10)
	// A small node budget guarantees a frontier even on a tree this size.
	s := newDensityEstimator(tree, kern, DefaultConfig(), BackendSampling)
	s.budget = 16
	var near, all QueryStats
	q := make([]float64, 10)
	s.nearPhase(q, math.Inf(1), &near)
	s.BoundDensity(q, 0, math.Inf(1), 0, &all)
	if all.PointKernels == 0 || all.PointKernels > int64(tree.Size) {
		t.Fatalf("PointKernels %d, want in (0, n=%d]", all.PointKernels, tree.Size)
	}
	if near.NodesVisited == 0 || all.NodesVisited <= near.NodesVisited {
		t.Fatalf("nodes visited: near phase %d, whole query %d; want the loop to add visits", near.NodesVisited, all.NodesVisited)
	}
	if near.BoundKernels == 0 {
		t.Fatal("no bound kernels recorded despite an unresolved frontier")
	}
}

// TestNearFirstNearPhasePartition cross-checks the budgeted near phase
// against brute force: the exact near sum plus the true kernel mass of
// the frontier nodes must reconstruct the exact density (rows in
// neither are support-pruned, contributing exactly zero), the frontier
// nodes must cover disjoint rows, and each node's certified masses must
// bracket its true mass.
func TestNearFirstNearPhasePartition(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{2000, 4}, {2000, 16}} {
		tree, kern := buildNearFirstIndex(t, 14, tc.n, tc.d)
		s := newDensityEstimator(tree, kern, DefaultConfig(), BackendSampling)
		invH2 := kern.InvBandwidthsSq()
		n := float64(tree.Size)
		for i, q := range normalQueries(rand.New(rand.NewSource(15)), 10, tc.d, 1) {
			var w QueryStats
			sumNear := s.nearPhase(q, math.Inf(1), &w)

			owner := make([]int, tree.Size)
			frontierTrue := 0.0
			for _, it := range s.heap.items {
				m := &tree.Meta[it.id]
				mass := 0.0
				for row := int(m.Lo); row < int(m.Hi); row++ {
					if owner[row] != 0 {
						t.Fatalf("d=%d query %d: row %d in two frontier nodes", tc.d, i, row)
					}
					owner[row] = 1
					mass += kern.FromScaledSqDist(kernel.ScaledSqDist(q, tree.Pts.Row(row), invH2))
				}
				frontierTrue += mass
				if tol := 1e-9 * mass / n; it.wlo > mass/n+tol || mass/n > it.whi+tol {
					t.Fatalf("d=%d query %d: node %d masses [%g, %g] miss its true mass %g", tc.d, i, it.id, it.wlo, it.whi, mass/n)
				}
			}
			want := exactDensity(tree.Pts, kern, q) * n
			got := sumNear + frontierTrue
			if math.Abs(got-want) > 1e-9*math.Max(want, 1e-300) {
				t.Fatalf("d=%d query %d: near %v + frontier %v = %v != exact mass %v",
					tc.d, i, sumNear, frontierTrue, got, want)
			}
		}
	}
}

// TestNearFirstTrace pins the observability contract: a trace attached
// to the QueryStats sees one "near" stage and then one "far/refine"
// stage, the two stages' work sums to the query's, the last stage's
// bounds are the answer's, and tracing does not perturb the answer: a
// traced and an untraced run of the same query agree bit for bit.
func TestNearFirstTrace(t *testing.T) {
	tree, kern := buildNearFirstIndex(t, 16, 5000, 10)
	q := make([]float64, 10)
	th := 0.5 * exactDensity(tree.Pts, kern, q)

	s := newDensityEstimator(tree, kern, DefaultConfig(), BackendSampling)
	s.budget = 16
	tr := &telemetry.QueryTrace{}
	w := QueryStats{Trace: tr}
	fl, fu, est := s.BoundDensity(q, th, th, 0.001*th, &w)

	if len(tr.Stages) != 2 || tr.Stages[0].Name != "near" || tr.Stages[1].Name != "far/refine" {
		t.Fatalf("stages %+v, want near then far/refine", tr.Stages)
	}
	var nodes, points, bounds int64
	for _, st := range tr.Stages {
		nodes += st.Nodes
		points += st.Points
		bounds += st.Bounds
	}
	if nodes != w.NodesVisited || points != w.PointKernels || bounds != w.BoundKernels {
		t.Fatalf("stage work %d/%d/%d != query work %d/%d/%d (nodes/points/bounds)",
			nodes, points, bounds, w.NodesVisited, w.PointKernels, w.BoundKernels)
	}
	last := tr.Stages[1]
	if last.Lower != fl || last.Upper != fu || last.Band != fu-fl {
		t.Fatalf("final stage bounds [%g, %g] band %g, returned [%g, %g]", last.Lower, last.Upper, last.Band, fl, fu)
	}

	s2 := newDensityEstimator(tree, kern, DefaultConfig(), BackendSampling)
	s2.budget = 16
	var w2 QueryStats
	fl2, fu2, est2 := s2.BoundDensity(q, th, th, 0.001*th, &w2)
	if fl2 != fl || fu2 != fu || est2 != est {
		t.Fatalf("untraced run differs: (%g, %g, %g) vs (%g, %g, %g)", fl2, fu2, est2, fl, fu, est)
	}
	w2.Trace = w.Trace
	if w2 != w {
		t.Fatalf("untraced accounting differs: %+v vs %+v", w2, w)
	}
}

// TestNearFirstAnswersCertified checks every answer against the exact
// density. Queries are half training rows, half fresh draws; thresholds
// sit at the 1st, 50th and 99th percentile of their exact densities and
// at one query's own exact density, where no certified interval can
// decide. Every answer must bracket the exact density and report its
// decided side's bound: fl above tu, fu below tl, the midpoint when only
// the tolerance rule fired. Some answers must be decided with part of
// the frontier still unresolved.
func TestNearFirstAnswersCertified(t *testing.T) {
	for _, d := range []int{2, 8, 27} {
		tree, kern := buildNearFirstIndex(t, 5, 4000, d)
		s := newDensityEstimator(tree, kern, DefaultConfig(), BackendSampling)
		rng := rand.New(rand.NewSource(9))
		queries := normalQueries(rng, 200, d, 1.5)
		for i := 0; i < len(queries); i += 2 {
			queries[i] = tree.Pts.Row(rng.Intn(tree.Size))
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
				f := exacts[i]
				if !brackets(fl, fu, f) {
					t.Fatalf("d=%d t=%g query %d: [%g, %g] misses exact %g", d, th, i, fl, fu, f)
				}
				switch {
				case fl == fu:
					// Summed exactly: nothing left to decide.
				case fl > th:
					decided++
					if est != fl {
						t.Fatalf("d=%d t=%g query %d: HIGH, est %g != fl %g", d, th, i, est, fl)
					}
				case fu < th:
					decided++
					if est != fu {
						t.Fatalf("d=%d t=%g query %d: LOW, est %g != fu %g", d, th, i, est, fu)
					}
				case fu-fl < tolCut:
					if est != 0.5*(fl+fu) {
						t.Fatalf("d=%d t=%g query %d: tolerance stop, est %g != midpoint of [%g, %g]", d, th, i, est, fl, fu)
					}
				default:
					t.Fatalf("d=%d t=%g query %d: no rule met by [%g, %g]", d, th, i, fl, fu)
				}
			}
		}
		t.Logf("d=%d: %d answers decided with part of the frontier unresolved", d, decided)
		if decided == 0 {
			t.Fatalf("d=%d: no answer was decided before its heap emptied", d)
		}
	}
}
