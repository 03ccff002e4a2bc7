package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tkdc/internal/kernel"
	"tkdc/internal/points"
)

func storeOf(tb testing.TB, rows [][]float64) *points.Store {
	tb.Helper()
	s, err := points.FromRows(rows)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	pts := storeOf(t, [][]float64{{1, 2}})
	if _, err := NewWorkers(nil, []float64{1}, 1); err == nil {
		t.Fatal("empty points should error")
	}
	if _, err := NewWorkers(pts, nil, 1); err == nil {
		t.Fatal("empty widths should error")
	}
	if _, err := NewWorkers(pts, []float64{1, 0}, 1); err == nil {
		t.Fatal("zero width should error")
	}
	if _, err := NewWorkers(pts, []float64{1, math.NaN()}, 1); err == nil {
		t.Fatal("NaN width should error")
	}
	if _, err := NewWorkers(pts, []float64{1}, 1); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}

func TestCountBasics(t *testing.T) {
	pts := storeOf(t, [][]float64{
		{0.1, 0.1}, {0.9, 0.9}, // cell (0,0)
		{1.5, 0.5},   // cell (1,0)
		{-0.5, -0.5}, // cell (-1,-1)
	})
	g, err := NewWorkers(pts, []float64{1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Count([]float64{0.5, 0.5}); got != 2 {
		t.Fatalf("cell (0,0) count = %d, want 2", got)
	}
	if got := g.Count([]float64{1.2, 0.8}); got != 1 {
		t.Fatalf("cell (1,0) count = %d, want 1", got)
	}
	if got := g.Count([]float64{-0.1, -0.9}); got != 1 {
		t.Fatalf("cell (-1,-1) count = %d, want 1", got)
	}
	if got := g.Count([]float64{100, 100}); got != 0 {
		t.Fatalf("empty cell count = %d, want 0", got)
	}
	if g.N() != 4 || g.Dim() != 2 || g.Cells() != 3 {
		t.Fatalf("N=%d Dim=%d Cells=%d, want 4/2/3", g.N(), g.Dim(), g.Cells())
	}
}

func TestNegativeCoordinateCells(t *testing.T) {
	// floor semantics: -0.5 with width 1 lands in cell -1, not 0.
	g, err := NewWorkers(storeOf(t, [][]float64{{-0.5}}), []float64{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Count([]float64{-0.01}); got != 1 {
		t.Fatalf("cell -1 count = %d, want 1", got)
	}
	if got := g.Count([]float64{0.01}); got != 0 {
		t.Fatalf("cell 0 count = %d, want 0", got)
	}
}

func TestDiagSqScaledEqualsDimWhenWidthsAreBandwidths(t *testing.T) {
	h := []float64{0.3, 2.5, 7}
	k, err := kernel.NewGaussian(h)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewWorkers(storeOf(t, [][]float64{{0, 0, 0}}), h, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.DiagSqScaled(k.InvBandwidthsSq()); math.Abs(got-3) > 1e-12 {
		t.Fatalf("DiagSqScaled = %v, want 3 (= d)", got)
	}
}

// Property: the grid's density bound is a true lower bound on the exact
// kernel density for random data and queries.
func TestLowerBoundDensityIsLowerBound(t *testing.T) {
	h := []float64{0.5, 0.5}
	k, err := kernel.NewGaussian(h)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(500)
		pts := points.New(n, 2)
		for i := range pts.Data {
			pts.Data[i] = rng.NormFloat64()
		}
		g, err := NewWorkers(pts, h, 1)
		if err != nil {
			return false
		}
		kDiag := k.FromScaledSqDist(g.DiagSqScaled(k.InvBandwidthsSq()))
		for trial := 0; trial < 10; trial++ {
			q := []float64{rng.NormFloat64(), rng.NormFloat64()}
			exact := 0.0
			for i := 0; i < n; i++ {
				exact += kernel.At(k, q, pts.Row(i))
			}
			exact /= float64(n)
			if g.LowerBoundDensity(q, kDiag) > exact+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseClusterTriggersBound(t *testing.T) {
	// 1000 points in one tight cluster: the grid bound at the cluster
	// center must be strongly positive.
	rng := rand.New(rand.NewSource(9))
	pts := points.New(1000, 2)
	for i := range pts.Data {
		// Centered inside cell (0,0) so the whole cluster shares one cell.
		pts.Data[i] = 0.5 + rng.NormFloat64()*0.01
	}
	h := []float64{1, 1}
	k, _ := kernel.NewGaussian(h)
	g, err := NewWorkers(pts, h, 1)
	if err != nil {
		t.Fatal(err)
	}
	kDiag := k.FromScaledSqDist(g.DiagSqScaled(k.InvBandwidthsSq()))
	lb := g.LowerBoundDensity([]float64{0.5, 0.5}, kDiag)
	// Nearly all mass within the cell: bound ≈ K(d_diag) ≈ norm·e^{-1}.
	if lb < 0.9*k.AtZero()*math.Exp(-1) {
		t.Fatalf("cluster lower bound = %v, too weak", lb)
	}
}

func BenchmarkGridBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	pts := points.New(100_000, 2)
	for i := range pts.Data {
		pts.Data[i] = rng.NormFloat64()
	}
	h := []float64{0.05, 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewWorkers(pts, h, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridCount(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	pts := points.New(100_000, 2)
	for i := range pts.Data {
		pts.Data[i] = rng.NormFloat64()
	}
	g, err := NewWorkers(pts, []float64{0.05, 0.05}, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := []float64{0.1, -0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Count(q)
	}
}

// TestNewWorkersMatchesSequential checks the parallel fill produces the
// exact same cell-count map as the sequential one across worker counts
// — including counts above the chunk boundaries (duplicate-heavy rows).
func TestNewWorkersMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 3, 100, 2377} {
		for _, d := range []int{1, 2, 3} {
			pts := points.New(n, d)
			for i := range pts.Data {
				// Discretized draws so many rows share cells across chunks.
				pts.Data[i] = float64(rng.Intn(6)) * 0.7
			}
			widths := make([]float64, d)
			for j := range widths {
				widths[j] = 0.5 + rng.Float64()
			}
			ref, err := NewWorkers(pts, widths, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 4, 7} {
				g, err := NewWorkers(pts, widths, w)
				if err != nil {
					t.Fatalf("NewWorkers(n=%d d=%d w=%d): %v", n, d, w, err)
				}
				if len(g.counts) != len(ref.counts) {
					t.Fatalf("n=%d d=%d w=%d: %d cells, sequential %d", n, d, w, len(g.counts), len(ref.counts))
				}
				for k, v := range ref.counts {
					if g.counts[k] != v {
						t.Fatalf("n=%d d=%d w=%d: cell count %d, sequential %d", n, d, w, g.counts[k], v)
					}
				}
			}
		}
	}
}
