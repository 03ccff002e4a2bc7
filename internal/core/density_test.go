package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
)

// buildEstimator constructs a tree + estimator over random data.
func buildEstimator(t testing.TB, rng *rand.Rand, n, d int) (*densityEstimator, *points.Store, *kernel.Gaussian) {
	t.Helper()
	pts := points.New(n, d)
	for i := range pts.Data {
		pts.Data[i] = rng.NormFloat64() * 5
	}
	h, err := kernel.ScottBandwidths(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := kernel.NewGaussian(h)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := kdtree.Build(pts, kdtree.Options{LeafSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	return newDensityEstimator(tree, kern, DefaultConfig(), BackendTree), pts, kern
}

// Property: BoundDensity's certified bounds always bracket the exact
// density, for arbitrary thresholds (which only change where it stops).
func TestBoundDensityBracketsExactProperty(t *testing.T) {
	f := func(seed int64, rawTl, rawTu float64) bool {
		rng := rand.New(rand.NewSource(seed))
		est, pts, kern := buildEstimator(t, rng, 100+rng.Intn(400), 1+rng.Intn(3))
		d := pts.Dim
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.NormFloat64() * 8
		}
		tl := math.Abs(math.Mod(rawTl, 1)) * 0.01
		tu := tl + math.Abs(math.Mod(rawTu, 1))*0.01
		var qs QueryStats
		fl, fu, _ := est.BoundDensity(q, tl, tu, 0.01*tl, &qs)
		exact := exactDensity(pts, kern, q)
		slack := 1e-9*math.Max(exact, fl) + 1e-300
		return fl <= exact+slack && fu >= exact-slack && fl <= fu
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// With both pruning rules disabled the traversal must compute the exact
// density (the Figure 12 "Baseline" configuration).
func TestBoundDensityExactWhenRulesDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := mustStore(gauss2D(rng, 500))
	h, _ := kernel.ScottBandwidths(pts, 1)
	kern, _ := kernel.NewGaussian(h)
	tree, err := kdtree.Build(pts, kdtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DisableThresholdRule, cfg.DisableToleranceRule = true, true
	est := newDensityEstimator(tree, kern, cfg, BackendTree)
	for trial := 0; trial < 50; trial++ {
		q := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		var qs QueryStats
		fl, fu, _ := est.BoundDensity(q, 0.001, 0.001, 0.001*0.01, &qs)
		exact := exactDensity(pts, kern, q)
		if math.Abs(fl-exact) > 1e-9*exact+1e-300 || math.Abs(fu-exact) > 1e-9*exact+1e-300 {
			t.Fatalf("rules-disabled traversal not exact: [%g, %g] vs %g", fl, fu, exact)
		}
		if qs.PointKernels != int64(pts.Len()) {
			t.Fatalf("exact traversal evaluated %d point kernels, want %d", qs.PointKernels, pts.Len())
		}
	}
}

// The threshold rule must dramatically reduce work for points far from
// the threshold.
func TestThresholdRuleSavesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	pts := mustStore(gauss2D(rng, 5000))
	h, _ := kernel.ScottBandwidths(pts, 1)
	kern, _ := kernel.NewGaussian(h)
	tree, err := kdtree.Build(pts, kdtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pruned := newDensityEstimator(tree, kern, DefaultConfig(), BackendTree)
	noThreshold := DefaultConfig()
	noThreshold.DisableThresholdRule = true
	unpruned := newDensityEstimator(tree, kern, noThreshold, BackendTree)

	// A deep-center point is far above any small threshold.
	q := []float64{0, 0}
	tl, tu := 1e-4, 1.2e-4
	var prunedStats, unprunedStats QueryStats
	pruned.BoundDensity(q, tl, tu, 0.01*tl, &prunedStats)
	unpruned.BoundDensity(q, tl, tu, 0.01*tl, &unprunedStats)
	if prunedStats.Kernels()*10 > unprunedStats.Kernels() {
		t.Fatalf("threshold rule saved too little: %d vs %d kernels", prunedStats.Kernels(), unprunedStats.Kernels())
	}
}

func TestEstimateDensityReachesRequestedPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	est, pts, kern := buildEstimator(t, rng, 2000, 2)
	for _, rel := range []float64{0.1, 0.01, 0.001} {
		q := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		var qs QueryStats
		fl, fu, _ := est.EstimateDensity(q, rel, &qs)
		if fu-fl > rel*fl*(1+1e-9)+1e-300 {
			t.Fatalf("rel=%v: bounds [%g, %g] too loose", rel, fl, fu)
		}
		exact := exactDensity(pts, kern, q)
		if fl > exact*(1+1e-9) || fu < exact*(1-1e-9) {
			t.Fatalf("rel=%v: bounds miss exact", rel)
		}
	}
}

// Coarser tolerance must not require more work.
func TestEstimateDensityWorkMonotoneInPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	est, _, _ := buildEstimator(t, rng, 3000, 2)
	q := []float64{0.5, -0.5}
	var loose, tight QueryStats
	est.EstimateDensity(q, 0.5, &loose)
	est.EstimateDensity(q, 1e-4, &tight)
	if loose.Kernels() > tight.Kernels() {
		t.Fatalf("loose tolerance did more work: %d > %d", loose.Kernels(), tight.Kernels())
	}
}

func TestRefineHeapOrdering(t *testing.T) {
	var h refineHeap
	prios := []float64{0.3, 0.9, 0.1, 0.7, 0.5}
	for _, p := range prios {
		h.push(heapItem{wlo: 0, whi: p})
	}
	prev := math.Inf(1)
	for h.len() > 0 {
		it := h.pop()
		if it.pri > prev {
			t.Fatalf("heap popped %v after %v", it.pri, prev)
		}
		prev = it.pri
	}
}

func TestQueryStatsAggregation(t *testing.T) {
	a := QueryStats{PointKernels: 3, BoundKernels: 4, NodesVisited: 2}
	b := QueryStats{PointKernels: 1, BoundKernels: 2, NodesVisited: 1, GridHit: true}
	a.add(b)
	if a.PointKernels != 4 || a.BoundKernels != 6 || a.NodesVisited != 3 || !a.GridHit {
		t.Fatalf("aggregated stats wrong: %+v", a)
	}
	if a.Kernels() != 10 {
		t.Fatalf("Kernels() = %d, want 10", a.Kernels())
	}
}

// TestRunBoundsMatchHeapAtHighPeak pins the loop's exact pending sums
// where K(0) dwarfs the density: on N(0, 1) data at d = 32, with queries
// drawn 1.25 times as wide, every query is refined against a threshold
// at twice its exact density f, so the loop runs until fu < 2f (or the
// heap is empty). There the width fu − fl must equal the width the
// heap's items sum to afresh, to a millionth of f, for the tree start
// and the near-first start alike. A running sum that once held the
// root's mass (about K(0)) keeps a residue of up to tens of f here.
func TestRunBoundsMatchHeapAtHighPeak(t *testing.T) {
	tree, kern := buildNearFirstIndex(t, 32, 8000, 32)
	queries := normalQueries(rand.New(rand.NewSource(33)), 64, 32, 1.25)
	tr := newDensityEstimator(tree, kern, DefaultConfig(), BackendTree)
	nf := newDensityEstimator(tree, kern, DefaultConfig(), BackendSampling)
	peak := 0.0
	for i, q := range queries {
		f := exactDensity(tree.Pts, kern, q)
		peak = math.Max(peak, kern.AtZero()/f)
		for _, be := range []struct {
			name string
			e    *densityEstimator
		}{{"tree", tr}, {"near-first", nf}} {
			var qs QueryStats
			fl, fu, _ := be.e.BoundDensity(q, 2*f, 2*f, 0.01*f, &qs)
			lo, hi := be.e.heap.pending()
			if math.Abs((fu-fl)-(hi-lo)) > 1e-6*f {
				t.Fatalf("%s query %d: width %g, heap width %g, f = %g", be.name, i, fu-fl, hi-lo, f)
			}
			if !brackets(fl, fu, f) {
				t.Fatalf("%s query %d: [%g, %g] misses f = %g", be.name, i, fl, fu, f)
			}
		}
	}
	if peak <= 0x1p53 {
		t.Fatalf("largest K(0)/f = %g, want the set to reach past 2⁵³", peak)
	}
}
