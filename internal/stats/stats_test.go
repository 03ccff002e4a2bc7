package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
	if got := Variance(nil); got != 0 {
		t.Fatalf("Variance(nil) = %v, want 0", got)
	}
}

func TestColumnStdDevs(t *testing.T) {
	got := ColumnStdDevsFlat([]float64{1, 10, 3, 10, 5, 10}, 2)
	want0 := StdDev([]float64{1, 3, 5})
	if math.Abs(got[0]-want0) > 1e-12 {
		t.Fatalf("col 0 std = %v, want %v", got[0], want0)
	}
	if got[1] != 0 {
		t.Fatalf("constant column std = %v, want 0", got[1])
	}
	if ColumnStdDevsFlat(nil, 2) != nil {
		t.Fatal("empty dataset should yield nil")
	}
}

func TestOrderStatistic(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	for k, want := range map[int]float64{1: 1, 3: 3, 5: 5} {
		got, err := SortedOrderStatistic(sorted, k)
		if err != nil || got != want {
			t.Fatalf("SortedOrderStatistic(%d) = %v, %v; want %v", k, got, err, want)
		}
	}
	// Clamping.
	if got, _ := SortedOrderStatistic(sorted, 0); got != 1 {
		t.Fatalf("k=0 should clamp to min, got %v", got)
	}
	if got, _ := SortedOrderStatistic(sorted, 99); got != 5 {
		t.Fatalf("k=99 should clamp to max, got %v", got)
	}
	if _, err := SortedOrderStatistic(nil, 1); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got, err := SortedQuantile(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Fatalf("median of 1..100 = %v, want 50", got)
	}
	if got, _ := SortedQuantile(xs, 0.01); got != 1 {
		t.Fatalf("p=0.01 quantile = %v, want 1", got)
	}
	if got, _ := SortedQuantile(xs, 1); got != 100 {
		t.Fatalf("p=1 quantile = %v, want 100", got)
	}
	if got, _ := SortedQuantile(xs, -3); got != 1 {
		t.Fatalf("p<0 should clamp, got %v", got)
	}
	if got, _ := SortedQuantile(xs, 7); got != 100 {
		t.Fatalf("p>1 should clamp, got %v", got)
	}
	if _, err := SortedQuantile(nil, 0.5); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestQuantileCIIndicesPaperExample(t *testing.T) {
	// Section 3.5 worked example: s = 20000, δ = 0.01, p = 0.01 with
	// z = 2.576 brackets the 164th and 236th order statistics.
	l, u, err := QuantileCIIndices(20000, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if l < 162 || l > 165 {
		t.Fatalf("lower index = %d, want ≈164", l)
	}
	if u < 235 || u > 238 {
		t.Fatalf("upper index = %d, want ≈236", u)
	}
	if l >= u {
		t.Fatalf("degenerate interval [%d, %d]", l, u)
	}
}

func TestQuantileCIIndicesValidation(t *testing.T) {
	if _, _, err := QuantileCIIndices(0, 0.5, 0.1); err == nil {
		t.Fatal("s=0 should error")
	}
	if _, _, err := QuantileCIIndices(10, 0, 0.1); err == nil {
		t.Fatal("p=0 should error")
	}
	if _, _, err := QuantileCIIndices(10, 0.5, 1); err == nil {
		t.Fatal("delta=1 should error")
	}
	// Tiny samples must clamp, not go out of range.
	l, u, err := QuantileCIIndices(3, 0.5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if l < 1 || u > 3 || l > u {
		t.Fatalf("indices [%d, %d] out of range for s=3", l, u)
	}
}

// TestQuantileCICoverage checks the probabilistic guarantee of Equation 11:
// over repeated sampling, the true population quantile falls inside the
// sample order-statistic interval at least 1−δ of the time (within Monte
// Carlo noise).
func TestQuantileCICoverage(t *testing.T) {
	const (
		trials = 400
		s      = 2000
		p      = 0.05
		delta  = 0.05
	)
	rng := rand.New(rand.NewSource(42))
	// Population: standard normal; true p-quantile known analytically.
	trueQ := InvNormCDF(p)
	hits := 0
	sample := make([]float64, s)
	for trial := 0; trial < trials; trial++ {
		for i := range sample {
			sample[i] = rng.NormFloat64()
		}
		sort.Float64s(sample)
		l, u, err := QuantileCIIndices(s, p, delta)
		if err != nil {
			t.Fatal(err)
		}
		lo, _ := SortedOrderStatistic(sample, l)
		hi, _ := SortedOrderStatistic(sample, u)
		if lo <= trueQ && trueQ <= hi {
			hits++
		}
	}
	coverage := float64(hits) / trials
	if coverage < 1-delta-0.03 {
		t.Fatalf("coverage = %.3f, want ≥ %.3f", coverage, 1-delta-0.03)
	}
}

func TestNormCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
	}
	for _, c := range cases {
		if got := NormCDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestInvNormCDFKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.99, 2.3263478740408408},
		{0.995, 2.5758293035489004},
		{0.01, -2.3263478740408408},
	}
	for _, c := range cases {
		if got := InvNormCDF(c.p); math.Abs(got-c.want) > 1e-8 {
			t.Errorf("InvNormCDF(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestInvNormCDFEdgeCases(t *testing.T) {
	if got := InvNormCDF(0); !math.IsInf(got, -1) {
		t.Fatalf("InvNormCDF(0) = %v, want -Inf", got)
	}
	if got := InvNormCDF(1); !math.IsInf(got, 1) {
		t.Fatalf("InvNormCDF(1) = %v, want +Inf", got)
	}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if got := InvNormCDF(p); !math.IsNaN(got) {
			t.Fatalf("InvNormCDF(%v) = %v, want NaN", p, got)
		}
	}
}

// Property: InvNormCDF is the inverse of NormCDF across (0, 1).
func TestInvNormCDFRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Abs(math.Mod(raw, 1))
		if p < 1e-10 || p > 1-1e-10 {
			return true
		}
		z := InvNormCDF(p)
		return math.Abs(NormCDF(z)-p) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in p and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			q, err := SortedQuantile(sorted, p)
			if err != nil {
				return false
			}
			if q < prev || q < sorted[0] || q > sorted[n-1] {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConfusionScores(t *testing.T) {
	var c Confusion
	// 8 TP, 2 FP, 1 FN, 89 TN.
	for i := 0; i < 8; i++ {
		c.Add(true, true)
	}
	for i := 0; i < 2; i++ {
		c.Add(true, false)
	}
	c.Add(false, true)
	for i := 0; i < 89; i++ {
		c.Add(false, false)
	}
	if got := c.Precision(); got != 0.8 {
		t.Fatalf("Precision = %v, want 0.8", got)
	}
	if got := c.Recall(); math.Abs(got-8.0/9.0) > 1e-12 {
		t.Fatalf("Recall = %v, want %v", got, 8.0/9.0)
	}
	wantF1 := 2 * 0.8 * (8.0 / 9.0) / (0.8 + 8.0/9.0)
	if got := c.F1(); math.Abs(got-wantF1) > 1e-12 {
		t.Fatalf("F1 = %v, want %v", got, wantF1)
	}
}

func TestConfusionDegenerate(t *testing.T) {
	var c Confusion
	if c.Precision() != 1 || c.Recall() != 1 {
		t.Fatal("empty confusion should report perfect precision/recall")
	}
	var d Confusion
	d.Add(false, false)
	if d.F1() != 1 {
		t.Fatalf("all-negative F1 = %v, want 1 (vacuous)", d.F1())
	}
}

func BenchmarkInvNormCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		InvNormCDF(0.01 + 0.98*float64(i%100)/100)
	}
}

func BenchmarkQuantile(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if _, err := SortedQuantile(sorted, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}
