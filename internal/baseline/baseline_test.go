package baseline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tkdc/internal/kernel"
	"tkdc/internal/points"
)

func makeData(rng *rand.Rand, n, d int) (*points.Store, *kernel.Gaussian) {
	pts := points.New(n, d)
	for i := range pts.Data {
		pts.Data[i] = rng.NormFloat64() * 3
	}
	h, err := kernel.ScottBandwidths(pts, 1)
	if err != nil {
		panic(err)
	}
	kern, err := kernel.NewGaussian(h)
	if err != nil {
		panic(err)
	}
	return pts, kern
}

// exact computes the reference density by direct summation.
func exact(pts *points.Store, kern *kernel.Gaussian, x []float64) float64 {
	invH2 := kern.InvBandwidthsSq()
	sum := 0.0
	for i := 0; i < pts.Len(); i++ {
		sum += kern.FromScaledSqDist(kernel.ScaledSqDist(x, pts.Row(i), invH2))
	}
	return sum / float64(pts.Len())
}

func TestSimpleMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts, kern := makeData(rng, 500, 2)
	s := NewSimple(pts, kern)
	if s.Name() != "simple" || s.N() != 500 {
		t.Fatal("metadata wrong")
	}
	for trial := 0; trial < 30; trial++ {
		q := []float64{rng.NormFloat64() * 4, rng.NormFloat64() * 4}
		got := s.Density(q)
		want := exact(pts, kern, q)
		if math.Abs(got-want) > 1e-12*want+1e-300 {
			t.Fatalf("Density = %g, want %g", got, want)
		}
	}
	if s.Kernels() != 30*500 {
		t.Fatalf("kernel counter = %d, want %d", s.Kernels(), 30*500)
	}
}

func TestNoCutWithinTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts, kern := makeData(rng, 2000, 2)
	nc, err := NewNoCut(pts, kern, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if nc.Name() != "nocut" || nc.N() != 2000 {
		t.Fatal("metadata wrong")
	}
	for trial := 0; trial < 50; trial++ {
		q := []float64{rng.NormFloat64() * 4, rng.NormFloat64() * 4}
		fl, fu := nc.Bounds(q)
		want := exact(pts, kern, q)
		slack := 1e-9*want + 1e-300
		if fl > want+slack || fu < want-slack {
			t.Fatalf("bounds [%g, %g] miss exact %g", fl, fu, want)
		}
		if fu-fl > 0.01*fl*(1+1e-9)+1e-300 {
			t.Fatalf("bounds [%g, %g] exceed 1%% relative tolerance", fl, fu)
		}
		got := nc.Density(q)
		if math.Abs(got-want) > 0.01*want+1e-300 {
			t.Fatalf("Density = %g, want %g within 1%%", got, want)
		}
	}
	if nc.Kernels() == 0 {
		t.Fatal("kernel counter did not advance")
	}
}

func TestNoCutExactModeAndSavings(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts, kern := makeData(rng, 3000, 2)
	exactNC, err := NewNoCut(pts, kern, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.5, -0.5}
	got := exactNC.Density(q)
	want := exact(pts, kern, q)
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("eps=0 Density = %g, want exact %g", got, want)
	}
	// A loose tolerance should cost far fewer kernels than exact.
	loose, err := NewNoCut(pts, kern, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	loose.Density(q)
	if loose.Kernels()*2 > exactNC.Kernels() {
		t.Fatalf("loose tolerance saved too little: %d vs %d", loose.Kernels(), exactNC.Kernels())
	}
}

func TestRKDEValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts, kern := makeData(rng, 100, 2)
	if _, err := NewRKDE(pts, kern, 0); err == nil {
		t.Fatal("radius 0 should error")
	}
	if _, err := NewRKDE(pts, kern, -1); err == nil {
		t.Fatal("negative radius should error")
	}
	if _, err := NewRKDE(pts, kern, math.NaN()); err == nil {
		t.Fatal("NaN radius should error")
	}
}

func TestRKDELowerBoundAndConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts, kern := makeData(rng, 1500, 2)
	prev := -1.0
	for _, radius := range []float64{0.5, 1, 2, 4, 8} {
		r, err := NewRKDE(pts, kern, radius)
		if err != nil {
			t.Fatal(err)
		}
		if r.Radius() != radius {
			t.Fatalf("Radius() = %v, want %v", r.Radius(), radius)
		}
		q := []float64{0.2, 0.4}
		got := r.Density(q)
		want := exact(pts, kern, q)
		if got > want*(1+1e-9) {
			t.Fatalf("radius %v: rkde %g exceeds exact %g", radius, got, want)
		}
		if got < prev-1e-12 {
			t.Fatalf("density decreased as radius grew: %g < %g", got, prev)
		}
		prev = got
		// At a generous radius the truncation error vanishes.
		if radius == 8 && math.Abs(got-want) > 1e-6*want {
			t.Fatalf("radius 8: rkde %g still far from exact %g", got, want)
		}
	}
}

func TestRadiusForError(t *testing.T) {
	h := []float64{1, 1}
	kern, _ := kernel.NewGaussian(h)
	if _, err := RadiusForError(kern, 0); err == nil {
		t.Fatal("zero error target should error")
	}
	// Huge target: any radius works.
	r, err := RadiusForError(kern, kern.AtZero()*2)
	if err != nil || r <= 0 {
		t.Fatalf("huge target: r=%v err=%v", r, err)
	}
	// The guarantee: K(r²) == errAbs exactly at the returned radius.
	errAbs := kern.AtZero() * 1e-4
	r, err = RadiusForError(kern, errAbs)
	if err != nil {
		t.Fatal(err)
	}
	if got := kern.FromScaledSqDist(r * r); math.Abs(got-errAbs) > 1e-12*errAbs {
		t.Fatalf("K(r²) = %g, want %g", got, errAbs)
	}
}

func TestBinnedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts, kern := makeData(rng, 100, 2)
	if _, err := NewBinned(nil, kern); err == nil {
		t.Fatal("empty data should error")
	}
	if _, err := NewBinnedWithBins(pts, kern, 1); err == nil {
		t.Fatal("1 bin should error")
	}
	pts5, kern5 := makeData(rng, 100, 5)
	if _, err := NewBinned(pts5, kern5); err == nil {
		t.Fatal("d=5 should exceed the ks-style limit")
	}
}

func TestBinnedAccurateInLowDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range []int{1, 2} {
		pts, kern := makeData(rng, 2000, d)
		b, err := NewBinned(pts, kern)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name() != "binned" || b.N() != 2000 {
			t.Fatal("metadata wrong")
		}
		for trial := 0; trial < 20; trial++ {
			q := make([]float64, d)
			for j := range q {
				q[j] = rng.NormFloat64() * 2
			}
			got := b.Density(q)
			want := exact(pts, kern, q)
			if want < 1e-12 {
				continue
			}
			if math.Abs(got-want) > 0.15*want {
				t.Fatalf("d=%d: binned %g vs exact %g (rel err %.3f)", d, got, want, math.Abs(got-want)/want)
			}
		}
		if b.Kernels() == 0 {
			t.Fatal("kernel counter did not advance")
		}
	}
}

func TestBinnedCoarserInFourDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts, kern := makeData(rng, 3000, 4)
	b, err := NewBinned(pts, kern)
	if err != nil {
		t.Fatal(err)
	}
	if b.GridNodes() != 21*21*21*21 {
		t.Fatalf("GridNodes = %d, want 21⁴", b.GridNodes())
	}
	// The estimate should still be in the right order of magnitude at the
	// mode, but the ks-style 21-node grid is too coarse for tight error.
	q := []float64{0, 0, 0, 0}
	got := b.Density(q)
	want := exact(pts, kern, q)
	if got <= 0 {
		t.Fatalf("binned density at mode = %g, want positive", got)
	}
	if got > 100*want || got < want/100 {
		t.Fatalf("binned %g not within two orders of exact %g", got, want)
	}
}

func TestBinnedMassConservation(t *testing.T) {
	// Linear binning distributes exactly unit mass per point.
	rng := rand.New(rand.NewSource(9))
	pts, kern := makeData(rng, 500, 2)
	b, err := NewBinned(pts, kern)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, w := range b.weights {
		total += w
	}
	if math.Abs(total-500) > 1e-6 {
		t.Fatalf("total binned mass = %v, want 500", total)
	}
}

func TestBinnedFarQueryIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts, kern := makeData(rng, 300, 2)
	b, err := NewBinned(pts, kern)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Density([]float64{1e6, 1e6}); got != 0 {
		t.Fatalf("far query density = %g, want 0 (outside grid window)", got)
	}
}

// Property: all estimators are non-negative everywhere and agree on
// ordering between a dense and a sparse location.
func TestEstimatorsOrderingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts, kern := makeData(rng, 1000, 2)
	nc, err := NewNoCut(pts, kern, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := NewRKDE(pts, kern, 6)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := NewBinned(pts, kern)
	if err != nil {
		t.Fatal(err)
	}
	ests := []Estimator{NewSimple(pts, kern), nc, rk, bn}
	f := func(qx, qy float64) bool {
		q := []float64{math.Mod(qx, 10), math.Mod(qy, 10)}
		dense := []float64{0, 0}
		for _, e := range ests {
			dq := e.Density(q)
			dd := e.Density(dense)
			if dq < 0 || math.IsNaN(dq) {
				return false
			}
			// The mode must look at least as dense as a random point far
			// out; near the center ties are fine.
			if q[0]*q[0]+q[1]*q[1] > 36 && dq > dd {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSimpleDensity(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	pts, kern := makeData(rng, 10000, 2)
	s := NewSimple(pts, kern)
	q := []float64{0.1, 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Density(q)
	}
}

func BenchmarkNoCutDensity(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	pts, kern := makeData(rng, 10000, 2)
	nc, err := NewNoCut(pts, kern, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	q := []float64{0.1, 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nc.Density(q)
	}
}
