package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tkdc/internal/points"
)

func TestNewGaussianValidation(t *testing.T) {
	// 1e-160 and 1e-300 are positive but 1/h² overflows to +Inf.
	for _, h := range [][]float64{nil, {}, {0}, {-1}, {1, math.NaN()}, {math.Inf(1)}, {1, 1e-160}, {1e-300}} {
		if _, err := NewGaussian(h); err == nil {
			t.Errorf("NewGaussian(%v) should error", h)
		}
	}
}

func TestGaussian1DKnownValues(t *testing.T) {
	g, err := NewGaussian([]float64{2})
	if err != nil {
		t.Fatal(err)
	}
	// K(0) = 1/(√(2π)·2).
	want0 := 1 / (math.Sqrt(2*math.Pi) * 2)
	if math.Abs(g.AtZero()-want0) > 1e-15 {
		t.Fatalf("AtZero = %v, want %v", g.AtZero(), want0)
	}
	// K at x=2 (one bandwidth): K(0)·exp(-1/2).
	got := At(g, []float64{2}, []float64{0})
	want := want0 * math.Exp(-0.5)
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("At(h) = %v, want %v", got, want)
	}
	if g.Dim() != 1 {
		t.Fatal("metadata mismatch")
	}
	if g.SupportSqRadius() != 1488 {
		t.Fatalf("gaussian truncation = %v, want 1488", g.SupportSqRadius())
	}
	if g.FromScaledSqDist(1488) != 0 || g.FromScaledSqDist(2000) != 0 {
		t.Fatal("kernel must vanish beyond the truncation radius")
	}
	if g.FromScaledSqDist(1487.9) < 0 {
		t.Fatal("kernel must stay non-negative just inside the truncation radius")
	}
}

func TestGaussianMatchesDirectFormula(t *testing.T) {
	h := []float64{0.5, 1.5, 3}
	g, err := NewGaussian(h)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		// Direct product of 1-d normal densities.
		want := 1.0
		for i, hi := range h {
			want *= math.Exp(-0.5*x[i]*x[i]/(hi*hi)) / (math.Sqrt(2*math.Pi) * hi)
		}
		got := At(g, x, []float64{0, 0, 0})
		if math.Abs(got-want) > 1e-15*math.Max(1, want) {
			t.Fatalf("kernel mismatch at %v: got %v want %v", x, got, want)
		}
	}
}

func TestGaussianHighDimensionNoUnderflowInNorm(t *testing.T) {
	// 784 dimensions with bandwidth 1000 each: Π(√(2π)·1000) overflows a
	// float64 if computed naively; the log-space norm must stay finite.
	h := make([]float64, 784)
	for i := range h {
		h[i] = 1000
	}
	g, err := NewGaussian(h)
	if err != nil {
		t.Fatal(err)
	}
	if g.AtZero() < 0 || math.IsNaN(g.AtZero()) || math.IsInf(g.AtZero(), 0) {
		t.Fatalf("AtZero = %v, want finite non-negative", g.AtZero())
	}
}

func TestScaledSqDist(t *testing.T) {
	invH2 := []float64{1, 0.25} // h = (1, 2)
	got := ScaledSqDist([]float64{3, 4}, []float64{0, 0}, invH2)
	if got != 9+4 {
		t.Fatalf("ScaledSqDist = %v, want 13", got)
	}
}

// Property: the Gaussian kernel is positive, maximal at zero, symmetric,
// and monotone non-increasing in scaled distance.
func TestGaussianShapeProperties(t *testing.T) {
	g, err := NewGaussian([]float64{1.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	f := func(ax, ay, bx, by float64) bool {
		a := []float64{math.Mod(ax, 50), math.Mod(ay, 50)}
		b := []float64{math.Mod(bx, 50), math.Mod(by, 50)}
		v := At(g, a, b)
		if v < 0 || v > g.AtZero() {
			return false
		}
		if At(g, b, a) != v {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	// Monotonicity in s.
	prev := g.FromScaledSqDist(0)
	for s := 0.1; s < 50; s += 0.1 {
		cur := g.FromScaledSqDist(s)
		if cur > prev {
			t.Fatalf("kernel increased at s=%v", s)
		}
		prev = cur
	}
}

// TestGaussianIntegratesToOne verifies unit mass by trapezoidal
// integration in 1 and 2 dimensions.
func TestGaussianIntegratesToOne(t *testing.T) {
	g1, _ := NewGaussian([]float64{0.8})
	sum := 0.0
	const step = 0.01
	for x := -10.0; x <= 10; x += step {
		sum += At(g1, []float64{x}, []float64{0}) * step
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("1-d gaussian mass = %v, want 1", sum)
	}

	g2, _ := NewGaussian([]float64{1, 2})
	sum = 0.0
	const step2 = 0.05
	for x := -8.0; x <= 8; x += step2 {
		for y := -16.0; y <= 16; y += step2 {
			sum += At(g2, []float64{x, y}, []float64{0, 0}) * step2 * step2
		}
	}
	if math.Abs(sum-1) > 1e-2 {
		t.Fatalf("2-d gaussian mass = %v, want 1", sum)
	}
}

func TestScottBandwidths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, d = 10000, 3
	rows := points.New(n, d)
	for i := 0; i < n; i++ {
		copy(rows.Row(i), []float64{rng.NormFloat64() * 1, rng.NormFloat64() * 5, rng.NormFloat64() * 0.2})
	}
	h, err := ScottBandwidths(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	factor := math.Pow(float64(n), -1.0/(d+4))
	// σ estimates should be near the true values; allow 10%.
	for i, sigma := range []float64{1, 5, 0.2} {
		want := factor * sigma
		if math.Abs(h[i]-want) > 0.1*want {
			t.Errorf("h[%d] = %v, want ≈%v", i, h[i], want)
		}
	}
	// Scale factor b multiplies through.
	h2, err := ScottBandwidths(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h {
		if math.Abs(h2[i]-2*h[i]) > 1e-12 {
			t.Errorf("b=2 should double h[%d]", i)
		}
	}
}

func TestScottBandwidthsConstantColumn(t *testing.T) {
	rows, err := points.FromRows([][]float64{{1, 7}, {2, 7}, {3, 7}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ScottBandwidths(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h[1] <= 0 || math.IsNaN(h[1]) {
		t.Fatalf("constant-column bandwidth = %v, want positive fallback", h[1])
	}
}

func TestScottBandwidthsErrors(t *testing.T) {
	one, err := points.FromRows([][]float64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScottBandwidths(nil, 1); err == nil {
		t.Fatal("empty dataset should error")
	}
	if _, err := ScottBandwidths(one, 0); err == nil {
		t.Fatal("b=0 should error")
	}
	if _, err := ScottBandwidths(one, -1); err == nil {
		t.Fatal("b<0 should error")
	}
}

func BenchmarkGaussianAt(b *testing.B) {
	g, _ := NewGaussian([]float64{1, 1, 1, 1})
	x := []float64{0.1, 0.2, 0.3, 0.4}
	zero := []float64{0, 0, 0, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		At(g, x, zero)
	}
}
