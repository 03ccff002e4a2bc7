package kernel

import (
	"math/rand"
	"testing"
)

// refSum is the generic per-row evaluation that Sum's concrete sweeps
// must reproduce: At over each row, added first to last.
func refSum(g *Gaussian, x, rows []float64) float64 {
	d := len(x)
	sum := 0.0
	for off := 0; off < len(rows); off += d {
		sum += At(g, x, rows[off:off+d])
	}
	return sum
}

// Rows on or past the truncation radius must add nothing in Sum's
// general-dimension loop, the fallback behind the unrolled d = 1 and
// d = 2 sweeps, while a row just inside the radius still counts.
func TestSumGenericFallbackSkipsBeyondSupport(t *testing.T) {
	g, err := NewGaussian([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0, 0, 0}
	inside := []float64{
		0.1, 0.1, 0.1,
		-0.2, 0.3, 0.5,
		32, 20, 7, // s = 1024 + 400 + 49 = 1473, just inside
	}
	beyond := []float64{
		32, 20, 8, // s = 1024 + 400 + 64 = 1488 exactly, on the radius
		-40, 12, 3,
		5e3, 0, 0,
	}
	if got := g.Sum(x, beyond); got != 0 {
		t.Fatalf("rows on or past the truncation radius sum to %v, want 0", got)
	}
	if got := g.Sum(x, inside[6:]); got == 0 || got != At(g, x, inside[6:]) {
		t.Fatalf("row just inside the truncation radius sums to %v, want At = %v > 0", got, At(g, x, inside[6:]))
	}
	rows := append(append([]float64(nil), inside[:3]...), beyond[:3]...)
	rows = append(rows, inside[3:]...)
	rows = append(rows, beyond[3:]...)
	if got, want := g.Sum(x, rows), refSum(g, x, inside); got != want {
		t.Fatalf("Sum = %v, sum over the in-support rows only = %v", got, want)
	}
}

// Sum's concrete sweeps (the unrolled d = 1 and d = 2 loops and the
// general loop) must each equal the generic per-row reference bit for
// bit, including rows past the truncation radius, which add nothing.
func TestSumGenericMatchesConcrete(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, d := range []int{1, 2, 3} {
		h := make([]float64, d)
		for j := range h {
			h[j] = 0.5 + rng.Float64()
		}
		g, err := NewGaussian(h)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		const n, far = 200, 20
		rows := make([]float64, n*d)
		for i := range rows {
			rows[i] = rng.NormFloat64() * 2
		}
		// The last rows sit 100 bandwidths out on the first axis, at
		// s ≥ 1e4, well past the truncation radius; one row is x itself.
		for i := n - far; i < n; i++ {
			rows[i*d] = x[0] + 100*h[0]*(1+rng.Float64())
		}
		copy(rows[d:2*d], x)

		if got, want := g.Sum(x, rows), refSum(g, x, rows); got != want {
			t.Fatalf("d=%d: Sum = %v, in-order sum of At = %v", d, got, want)
		}
		if got := g.Sum(x, rows[(n-far)*d:]); got != 0 {
			t.Fatalf("d=%d: rows past the truncation radius sum to %v, want 0", d, got)
		}
	}
}

// The Gaussian's support is infinite in exact arithmetic; the truncation
// at s = 1488 may cut only where float64 already underflows. So the
// d = 1 sweep must keep every row inside the radius, however far out in
// raw units and however small its value, and match the per-row reference.
func TestSumGenericInfiniteSupport(t *testing.T) {
	g, err := NewGaussian([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0}
	rows := []float64{0, 1, 2, 30}
	if got, want := g.Sum(x, rows), refSum(g, x, rows); got != want {
		t.Fatalf("Sum = %v, in-order sum of At = %v", got, want)
	}
	// s = 900 and s = 38.5² = 1482.25: tiny but representable values.
	for _, r := range []float64{30, -38.5} {
		want := At(g, x, []float64{r})
		if want == 0 {
			t.Fatalf("At at row %v underflowed to 0; the row should be representable", r)
		}
		if got := g.Sum(x, []float64{r}); got != want {
			t.Fatalf("row %v inside the truncation radius sums to %v, want %v", r, got, want)
		}
	}
}
