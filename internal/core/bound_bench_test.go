package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
	"tkdc/internal/stats"
)

// boundBenchState is one per-dimension benchmark fixture: an index over
// 50k Gaussian points and a threshold at the paper's default p=0.01
// quantile, so the backends run under realistic pruning pressure.
type boundBenchState struct {
	tree    *kdtree.Tree
	kern    *kernel.Gaussian
	est     *densityEstimator
	pts     *points.Store
	t       float64
	queries []float64 // flat row-major query block
	dim     int
}

func newBoundBenchState(b *testing.B, d int) *boundBenchState {
	b.Helper()
	const n = 50000
	rng := rand.New(rand.NewSource(int64(40 + d)))
	pts := points.New(n, d)
	for i := range pts.Data {
		pts.Data[i] = rng.NormFloat64() * 3
	}
	h, err := kernel.ScottBandwidths(pts, 1)
	if err != nil {
		b.Fatal(err)
	}
	kern, err := kernel.NewGaussian(h)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := kdtree.Build(pts, kdtree.Options{})
	if err != nil {
		b.Fatal(err)
	}
	est := newDensityEstimator(tree, kern, false, false)

	// Estimate the p=0.01 threshold from a small exact-density sample —
	// enough precision to put the traversal in its production regime.
	const sample = 256
	ds := make([]float64, sample)
	for i := 0; i < sample; i++ {
		ds[i] = exactDensity(pts, kern, pts.Row(i*(n/sample)))
	}
	sort.Float64s(ds)
	t, err := stats.SortedQuantile(ds, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	return &boundBenchState{tree: tree, kern: kern, est: est, pts: pts, t: t, queries: pts.Data, dim: d}
}

// BenchmarkBoundDensity measures the Algorithm 2 traversal in isolation
// — no grid cache, no validation, no telemetry — across and beyond the
// paper's dimensionality range. d=16 and d=32 sit past the tree's
// pruning horizon (the traversal degenerates toward a full scan there);
// they pin the cost the near-first start exists to avoid. This is the
// direct probe for tree-layout and bound-computation changes: each
// iteration is one priority-queue traversal with fused box-distance
// bounds.
func BenchmarkBoundDensity(b *testing.B) {
	for _, d := range []int{1, 2, 4, 8, 16, 32} {
		d := d
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			st := newBoundBenchState(b, d)
			n := st.pts.Len()
			tolCut := 0.01 * st.t
			var qs QueryStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := st.queries[(i%n)*d : (i%n)*d+d]
				st.est.BoundDensity(x, st.t, st.t, tolCut, &qs)
			}
			b.ReportMetric(float64(qs.NodesVisited)/float64(b.N), "nodes/op")
		})
	}
}

// BenchmarkBackendHeadToHead runs the tree start and the near-first
// start (backend "sampling") over the same fixtures, thresholds, and
// stopping rules, through the same DensityBackend interface the
// classifier serves with. Where the near phase's budgeted descent
// undercuts the tree's degenerating traversal from the root is recorded
// in BENCH_core.json.
func BenchmarkBackendHeadToHead(b *testing.B) {
	for _, d := range []int{4, 8, 16, 32} {
		d := d
		var st *boundBenchState // shared by both backend runs at this d
		for _, backend := range []string{BackendTree, BackendSampling} {
			backend := backend
			b.Run(fmt.Sprintf("d%d/%s", d, backend), func(b *testing.B) {
				if st == nil || st.dim != d {
					st = newBoundBenchState(b, d)
				}
				cfg := DefaultConfig()
				cfg.Backend = backend
				be := NewBackend(st.tree, st.kern, cfg)
				n := st.pts.Len()
				tolCut := 0.01 * st.t
				var qs QueryStats
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					x := st.queries[(i%n)*d : (i%n)*d+d]
					be.BoundDensity(x, st.t, st.t, tolCut, &qs)
				}
				b.ReportMetric(float64(qs.PointKernels)/float64(b.N), "pointkernels/op")
			})
		}
	}
}
