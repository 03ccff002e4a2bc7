package core

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
	"tkdc/internal/stats"
)

// mustStore copies rows into flat storage, panicking on malformed input
// (test data is always well-formed).
func mustStore(rows [][]float64) *points.Store {
	s, err := points.FromRows(rows)
	if err != nil {
		panic(err)
	}
	return s
}

// gauss2D draws n points from a 2-d mixture with a dominant mode and a
// sparse satellite, giving the threshold something non-trivial to find.
func gauss2D(rng *rand.Rand, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		if rng.Float64() < 0.9 {
			pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		} else {
			pts[i] = []float64{6 + rng.NormFloat64()*0.5, 6 + rng.NormFloat64()*0.5}
		}
	}
	return pts
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.S0 = 2000 // keep test-sized bootstraps quick
	return cfg
}

func TestDefaultConfigMatchesPaperTable1(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.P != 0.01 {
		t.Errorf("P = %v, want 0.01", cfg.P)
	}
	if cfg.Epsilon != 0.01 {
		t.Errorf("Epsilon = %v, want 0.01", cfg.Epsilon)
	}
	if cfg.Delta != 0.01 {
		t.Errorf("Delta = %v, want 0.01", cfg.Delta)
	}
	if cfg.BandwidthFactor != 1 {
		t.Errorf("BandwidthFactor = %v, want 1", cfg.BandwidthFactor)
	}
	if cfg.R0 != 200 || cfg.S0 != 20000 {
		t.Errorf("R0/S0 = %d/%d, want 200/20000", cfg.R0, cfg.S0)
	}
	if cfg.HBackoff != 4 || cfg.HBuffer != 1.5 || cfg.HGrowth != 4 {
		t.Errorf("backoff/buffer/growth = %v/%v/%v, want 4/1.5/4", cfg.HBackoff, cfg.HBuffer, cfg.HGrowth)
	}
	if cfg.MaxGridDim != 4 {
		t.Errorf("MaxGridDim = %d, want 4", cfg.MaxGridDim)
	}
	if cfg.Split != kdtree.SplitEquiWidth {
		t.Errorf("Split = %v, want equiwidth", cfg.Split)
	}
}

func TestTrainValidation(t *testing.T) {
	cfg := testConfig()
	if _, err := Train(nil, cfg); err == nil {
		t.Error("empty dataset should error")
	}
	if _, err := Train([][]float64{{}}, cfg); err == nil {
		t.Error("zero-dimensional data should error")
	}
	if _, err := Train([][]float64{{1, 2}, {3}}, cfg); err == nil {
		t.Error("ragged data should error")
	}
	if _, err := Train([][]float64{{math.NaN()}}, cfg); err == nil {
		t.Error("NaN data should error")
	}
	if _, err := Train([][]float64{{math.Inf(-1)}}, cfg); err == nil {
		t.Error("Inf data should error")
	}

	data := [][]float64{{1}, {2}, {3}}
	bad := []Config{}
	for _, mut := range []func(*Config){
		func(c *Config) { c.P = 0 },
		func(c *Config) { c.P = 1 },
		func(c *Config) { c.Epsilon = 0 },
		func(c *Config) { c.Delta = 0 },
		func(c *Config) { c.Delta = 1 },
		func(c *Config) { c.BandwidthFactor = -1 },
		func(c *Config) { c.BandwidthFactor = 1e-160 }, // 1/h² overflows
		func(c *Config) { c.R0 = -1 },
		func(c *Config) { c.S0 = -1 },
		func(c *Config) { c.HBackoff = 0.5 },
		func(c *Config) { c.HBuffer = 0.5 },
		func(c *Config) { c.HGrowth = 1 },
		func(c *Config) { c.Kernel = KernelFamily(99) },
		// Non-finite knobs: HGrowth NaN or +Inf used to panic inside
		// Train, and the others trained without complaint.
		func(c *Config) { c.Epsilon = math.Inf(1) },
		func(c *Config) { c.Epsilon = math.NaN() },
		func(c *Config) { c.HBackoff = math.NaN() },
		func(c *Config) { c.HBackoff = math.Inf(1) },
		func(c *Config) { c.HBuffer = math.NaN() },
		func(c *Config) { c.HBuffer = math.Inf(1) },
		func(c *Config) { c.HGrowth = math.NaN() },
		func(c *Config) { c.HGrowth = math.Inf(1) },
	} {
		c := testConfig()
		mut(&c)
		bad = append(bad, c)
	}
	for i, c := range bad {
		if _, err := Train(data, c); err == nil {
			t.Errorf("bad config %d should error", i)
		}
	}
}

// TestClassificationMatchesExactKDE is the core correctness test: tKDC's
// labels must agree with exact-KDE classification for every training point
// whose density is outside the ±ε·t band (Problem 1).
func TestClassificationMatchesExactKDE(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := gauss2D(rng, 3000)
	cfg := testConfig()
	c, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth: exact densities, exact quantile threshold.
	pts := mustStore(data)
	h, _ := kernel.ScottBandwidths(pts, 1)
	kern, _ := kernel.NewGaussian(h)
	exact := make([]float64, len(data))
	for i, x := range data {
		exact[i] = exactDensity(pts, kern, x)
	}
	corrected := make([]float64, len(data))
	self := kern.AtZero() / float64(len(data))
	for i, f := range exact {
		corrected[i] = f - self
	}
	sort.Float64s(corrected)
	trueT, _ := stats.SortedQuantile(corrected, cfg.P)

	// t̃ must approximate the true threshold within ε (plus the ordering
	// slack of nearby densities).
	if math.Abs(c.Threshold()-trueT) > 3*cfg.Epsilon*trueT {
		t.Fatalf("threshold = %g, exact = %g (rel err %.4f)", c.Threshold(), trueT, math.Abs(c.Threshold()-trueT)/trueT)
	}

	band := cfg.Epsilon * c.Threshold()
	mismatches := 0
	checked := 0
	for i, x := range data {
		r, err := c.Score(x)
		if err != nil {
			t.Fatal(err)
		}
		f := exact[i]
		if math.Abs(f-c.Threshold()) <= 2*band {
			continue // undefined zone
		}
		checked++
		want := Low
		if f > c.Threshold() {
			want = High
		}
		if r.Label != want {
			mismatches++
		}
	}
	if checked < len(data)/2 {
		t.Fatalf("only %d points outside the ε band; test data degenerate", checked)
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d clear-margin points misclassified", mismatches, checked)
	}
}

// TestScoreBoundsContainExactDensity: certified bounds must bracket the
// exact density on arbitrary (non-training) queries.
func TestScoreBoundsContainExactDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data := gauss2D(rng, 1500)
	cfg := testConfig()
	cfg.DisableGrid = true // force tree bounds
	c, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := mustStore(data)
	h, _ := kernel.ScottBandwidths(pts, 1)
	kern, _ := kernel.NewGaussian(h)
	for trial := 0; trial < 200; trial++ {
		q := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		r, err := c.Score(q)
		if err != nil {
			t.Fatal(err)
		}
		f := exactDensity(pts, kern, q)
		slack := 1e-9 * math.Max(f, 1e-300)
		if r.Lower > f+slack || r.Upper < f-slack {
			t.Fatalf("bounds [%g, %g] do not contain exact density %g at %v", r.Lower, r.Upper, f, q)
		}
	}
}

func TestGridAndNoGridAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := gauss2D(rng, 2000)
	cfg := testConfig()
	withGrid, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.DisableGrid = true
	noGrid, err := Train(data, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !withGrid.TrainStats().GridEnabled || noGrid.TrainStats().GridEnabled {
		t.Fatal("grid enablement flags wrong")
	}
	band := cfg.Epsilon * withGrid.Threshold() * 4
	for trial := 0; trial < 300; trial++ {
		q := []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
		a, err := withGrid.Score(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := noGrid.Score(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Label != b.Label {
			// Disagreement is only legitimate right at the threshold.
			est := b.Estimate()
			if math.Abs(est-withGrid.Threshold()) > band {
				t.Fatalf("grid/no-grid disagree at %v (density %g, threshold %g)", q, est, withGrid.Threshold())
			}
		}
	}
	if withGrid.Stats().GridHits == 0 {
		t.Fatal("grid never fired on a dense Gaussian; cache ineffective")
	}
}

func TestGridDisabledAboveMaxDim(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	data := make([][]float64, 600)
	for i := range data {
		row := make([]float64, 5)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		data[i] = row
	}
	c, err := Train(data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.TrainStats().GridEnabled {
		t.Fatal("grid must be disabled for d > 4")
	}
}

func TestOptimizationTogglesPreserveLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	data := gauss2D(rng, 1200)
	base := testConfig()
	ref, err := Train(data, base)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]func(*Config){
		"noThreshold": func(c *Config) { c.DisableThresholdRule = true },
		"noTolerance": func(c *Config) { c.DisableToleranceRule = true },
		"noGrid":      func(c *Config) { c.DisableGrid = true },
		"median":      func(c *Config) { c.Split = kdtree.SplitMedian },
		"allOff": func(c *Config) {
			c.DisableThresholdRule = true
			c.DisableToleranceRule = true
			c.DisableGrid = true
		},
	}
	for name, mut := range variants {
		cfg := base
		mut(&cfg)
		alt, err := Train(data, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		band := 4 * base.Epsilon * ref.Threshold()
		for trial := 0; trial < 150; trial++ {
			q := []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
			a, err := ref.Score(q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := alt.Score(q)
			if err != nil {
				t.Fatal(err)
			}
			if a.Label != b.Label {
				est := b.Estimate()
				if math.IsInf(est, 1) {
					est = a.Estimate()
				}
				if math.Abs(est-ref.Threshold()) > band {
					t.Fatalf("%s: labels disagree at %v (density %g, threshold %g)", name, q, est, ref.Threshold())
				}
			}
		}
	}
}

func TestClassifyAllMatchesSequentialAndParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	data := gauss2D(rng, 1500)
	queries := gauss2D(rng, 400)

	cfg := testConfig()
	seq, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgP := cfg
	cfgP.Workers = 4
	par, err := Train(data, cfgP)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Threshold() != par.Threshold() {
		t.Fatalf("thresholds differ: %g vs %g (training must be deterministic)", seq.Threshold(), par.Threshold())
	}
	scattered := make([][]float64, 2000)
	for i := range scattered {
		scattered[i] = []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
	}
	same := make([][]float64, 100)
	for i := range same {
		same[i] = []float64{30, 30}
	}
	batches := []struct {
		name    string
		queries [][]float64
	}{
		{"mixture", queries},
		{"scattered", scattered},
		{"empty", nil},
		{"single", [][]float64{{0, 0}}},
		{"identical_far_rows", same},
	}

	// Labels must also match the exact KDE outside the ε band (Problem 1).
	pts := mustStore(data)
	h, _ := kernel.ScottBandwidths(pts, 1)
	kern, _ := kernel.NewGaussian(h)
	band := 2 * cfg.Epsilon * seq.Threshold()
	for _, bt := range batches {
		t.Run(bt.name, func(t *testing.T) {
			before := seq.Stats().Queries
			a, err := seq.ClassifyAll(bt.queries)
			if err != nil {
				t.Fatal(err)
			}
			if got := seq.Stats().Queries - before; got != int64(len(bt.queries)) {
				t.Fatalf("counted %d queries for %d rows", got, len(bt.queries))
			}
			b, err := par.ClassifyAll(bt.queries)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(bt.queries) || len(b) != len(bt.queries) {
				t.Fatalf("%d and %d labels for %d rows", len(a), len(b), len(bt.queries))
			}
			for i, q := range bt.queries {
				if a[i] != b[i] {
					t.Fatalf("query %d: sequential %v vs parallel %v", i, a[i], b[i])
				}
				f := exactDensity(pts, kern, q)
				if math.Abs(f-seq.Threshold()) <= band {
					continue
				}
				want := Low
				if f > seq.Threshold() {
					want = High
				}
				if a[i] != want {
					t.Fatalf("query %d (%v, density %g): %v, want %v (threshold %g)",
						i, q, f, a[i], want, seq.Threshold())
				}
			}
		})
	}
}

func TestClassifyAllValidatesQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	data := gauss2D(rng, 500)
	c, err := Train(data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ClassifyAll([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("dimension mismatch in batch should error")
	}
	if _, err := c.ClassifyAll([][]float64{{1, 2}, {math.NaN(), 0}}); err == nil {
		t.Fatal("NaN row in batch should error")
	}
	if _, err := c.Classify([]float64{math.NaN(), 0}); err == nil {
		t.Fatal("NaN query should error")
	}
	if _, err := c.Classify([]float64{1}); err == nil {
		t.Fatal("wrong-dimension query should error")
	}
}

func TestDensityBoundsPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	data := gauss2D(rng, 1000)
	c, err := Train(data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	pts := mustStore(data)
	h, _ := kernel.ScottBandwidths(pts, 1)
	kern, _ := kernel.NewGaussian(h)
	for trial := 0; trial < 50; trial++ {
		q := []float64{rng.NormFloat64(), rng.NormFloat64()}
		fl, fu, err := c.DensityBounds(q, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if fu-fl > 0.01*fl*(1+1e-9)+1e-300 {
			t.Fatalf("bounds [%g, %g] not within 1%% relative precision", fl, fu)
		}
		f := exactDensity(pts, kern, q)
		if fl > f*(1+1e-9) || fu < f*(1-1e-9) {
			t.Fatalf("bounds [%g, %g] miss exact %g", fl, fu, f)
		}
	}
	// rel ≤ 0 computes exactly.
	q := []float64{0.3, -0.2}
	fl, fu, err := c.DensityBounds(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := exactDensity(pts, kern, q)
	if math.Abs(fl-f) > 1e-9*f || math.Abs(fu-f) > 1e-9*f {
		t.Fatalf("exact-mode bounds [%g, %g] differ from %g", fl, fu, f)
	}
}

func TestOneDimensionalData(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	data := make([][]float64, 800)
	for i := range data {
		data[i] = []float64{rng.NormFloat64()}
	}
	c, err := Train(data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Tail point is LOW, center is HIGH.
	tail, err := c.Classify([]float64{8})
	if err != nil {
		t.Fatal(err)
	}
	if tail != Low {
		t.Fatalf("x=8 classified %v, want LOW", tail)
	}
	center, err := c.Classify([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if center != High {
		t.Fatalf("x=0 classified %v, want HIGH", center)
	}
}

func TestTinyDataset(t *testing.T) {
	data := [][]float64{{0, 0}, {0.1, 0}, {0, 0.1}, {5, 5}, {0.05, 0.05}}
	c, err := Train(data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 5 || c.Dim() != 2 {
		t.Fatalf("N=%d Dim=%d", c.N(), c.Dim())
	}
	if _, err := c.Classify([]float64{0, 0}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatePointsDataset(t *testing.T) {
	data := make([][]float64, 400)
	for i := range data {
		data[i] = []float64{float64(i % 4), float64(i % 2)}
	}
	c, err := Train(data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	lab, err := c.Classify([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if lab != High {
		t.Fatalf("duplicated mode classified %v, want HIGH", lab)
	}
}

func TestConstantColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	data := make([][]float64, 600)
	for i := range data {
		data[i] = []float64{rng.NormFloat64(), 42}
	}
	c, err := Train(data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Classify([]float64{0, 42}); err != nil {
		t.Fatal(err)
	}
}

// TestTrainRejectsUnknownKernelFamily: earlier releases trained family 1
// as an Epanechnikov kernel. A config that still names it must fail
// loudly instead of training a Gaussian model under its name.
func TestTrainRejectsUnknownKernelFamily(t *testing.T) {
	cfg := testConfig()
	cfg.Kernel = 1
	_, err := TrainStore(mustStore(gauss2D(rand.New(rand.NewSource(21)), 200)), cfg)
	if err == nil || !strings.Contains(err.Error(), "unknown kernel family 1") {
		t.Fatalf("TrainStore with Kernel = 1: err = %v, want unknown kernel family 1", err)
	}
}

func TestCountersAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	data := gauss2D(rng, 1000)
	cfg := testConfig()
	cfg.DisableGrid = true
	c, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Queries != 0 {
		t.Fatalf("fresh classifier reports %d queries", got.Queries)
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Classify([]float64{rng.NormFloat64(), rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Stats()
	if got.Queries != 50 {
		t.Fatalf("Queries = %d, want 50", got.Queries)
	}
	if got.Kernels() == 0 || got.NodesVisited == 0 {
		t.Fatal("work counters did not accumulate")
	}
	ts := c.TrainStats()
	if ts.TrainKernels == 0 || ts.BootstrapRounds < 1 || ts.Threshold <= 0 {
		t.Fatalf("train stats incomplete: %+v", ts)
	}
	if ts.N != 1000 || ts.Dim != 2 || len(ts.Bandwidths) != 2 {
		t.Fatalf("train stats metadata wrong: %+v", ts)
	}
}

// TestTheorem1SublinearKernelEvals checks the headline asymptotic claim:
// per-query kernel evaluations grow sublinearly in n for d = 2
// (Theorem 1: O(n^{1/2}) here), while the exact computation is Θ(n).
func TestTheorem1SublinearKernelEvals(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(23))
	sizes := []int{2000, 8000, 32000}
	perQuery := make([]float64, len(sizes))
	for si, n := range sizes {
		data := gauss2D(rng, n)
		cfg := testConfig()
		cfg.DisableGrid = true // count pure traversal work
		c, err := Train(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		const q = 200
		for i := 0; i < q; i++ {
			if _, err := c.Score([]float64{rng.NormFloat64(), rng.NormFloat64()}); err != nil {
				t.Fatal(err)
			}
		}
		perQuery[si] = float64(c.Stats().Kernels()) / q
	}
	// Between n=2000 and n=32000 (16×), O(√n) predicts 4× work; Θ(n)
	// predicts 16×. Require clearly sublinear growth.
	growth := perQuery[len(perQuery)-1] / perQuery[0]
	if growth > 8 {
		t.Fatalf("kernel evals grew %.1f× over a 16× data increase; not sublinear (per-query: %v)", growth, perQuery)
	}
}

func TestLabelString(t *testing.T) {
	if Low.String() != "LOW" || High.String() != "HIGH" {
		t.Fatal("label names wrong")
	}
}

func TestResultEstimate(t *testing.T) {
	r := Result{Lower: 2, Upper: 4, Density: 3}
	if r.Estimate() != 3 {
		t.Fatalf("Estimate = %v, want 3", r.Estimate())
	}
	g := Result{Lower: 5, Upper: math.Inf(1), Density: 5}
	if g.Estimate() != 5 {
		t.Fatalf("grid-hit Estimate = %v, want 5", g.Estimate())
	}
}

func TestDeterministicTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	data := gauss2D(rng, 1000)
	cfg := testConfig()
	a, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Threshold() != b.Threshold() {
		t.Fatalf("same seed produced thresholds %g and %g", a.Threshold(), b.Threshold())
	}
	lo1, hi1 := a.ThresholdBounds()
	lo2, hi2 := b.ThresholdBounds()
	if lo1 != lo2 || hi1 != hi2 {
		t.Fatal("threshold bounds not deterministic")
	}
}

func TestConfigNormalizedFillsDefaults(t *testing.T) {
	cfg := Config{P: 0.5, Epsilon: 0.1, Delta: 0.1, BandwidthFactor: 2}
	n := cfg.normalized()
	if n.MaxGridDim != 4 || n.R0 != 200 || n.S0 != 20000 {
		t.Fatalf("defaults not filled: %+v", n)
	}
	if n.HBackoff != 4 || n.HBuffer != 1.5 || n.HGrowth != 4 {
		t.Fatalf("bootstrap defaults not filled: %+v", n)
	}
	// Explicit values survive.
	if n.P != 0.5 || n.BandwidthFactor != 2 {
		t.Fatalf("explicit values overwritten: %+v", n)
	}
}

func TestCountersKernels(t *testing.T) {
	c := Counters{PointKernels: 7, BoundKernels: 5}
	if c.Kernels() != 12 {
		t.Fatalf("Kernels = %d, want 12", c.Kernels())
	}
}
