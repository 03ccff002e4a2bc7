package core

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"tkdc/internal/kernel"
	"tkdc/internal/points"
	"tkdc/internal/stats"
)

// bruteDensities returns the exact KDE (Scott's-rule bandwidths scaled
// by b, Gaussian kernel) at every row of data, self-contribution
// included, together with that self-contribution K_H(0)/n. Rows fan out
// over GOMAXPROCS goroutines; each row's sum is the same at any count.
func bruteDensities(data *points.Store, b float64) (ds []float64, self float64) {
	h, _ := kernel.ScottBandwidths(data, b)
	kern, _ := kernel.NewGaussian(h)
	ds = make([]float64, data.Len())
	forEachChunk(runtime.GOMAXPROCS(0), len(ds), func(next func() (int, int), _ *QueryStats) {
		for lo, hi := next(); lo < hi; lo, hi = next() {
			for i := lo; i < hi; i++ {
				ds[i] = exactDensity(data, kern, data.Row(i))
			}
		}
	})
	return ds, kern.AtZero() / float64(len(ds))
}

// bruteThreshold computes the exact self-contribution-corrected p-quantile
// of training densities — the definition of t(p) in Equation 1.
func bruteThreshold(data *points.Store, b, p float64) float64 {
	ds, self := bruteDensities(data, b)
	for i := range ds {
		ds[i] -= self
	}
	sort.Float64s(ds)
	t, _ := stats.SortedQuantile(ds, p)
	return t
}

// TestBoundThresholdBracketsTrueThreshold verifies the training
// guarantee across seeds: the trained bounds contain the exact t(p) (the
// failure probability δ = 0.01 makes a miss across 8 seeds vanishingly
// unlikely; allow one).
func TestBoundThresholdBracketsTrueThreshold(t *testing.T) {
	misses := 0
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := gauss2D(rng, 1500)
		cfg := testConfig()
		cfg.Seed = seed
		c, err := Train(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := c.ThresholdBounds()
		trueT := bruteThreshold(mustStore(data), cfg.BandwidthFactor, cfg.P)
		// Allow the ε precision the estimates carry.
		slack := 2 * cfg.Epsilon * trueT
		if trueT < lo-slack || trueT > hi+slack {
			misses++
			t.Logf("seed %d: true t(p)=%g outside [%g, %g]", seed, trueT, lo, hi)
		}
		if lo > hi {
			t.Fatalf("seed %d: inverted bounds [%g, %g]", seed, lo, hi)
		}
		if c.TrainStats().BootstrapRounds < 1 {
			t.Fatalf("seed %d: no bootstrap rounds recorded", seed)
		}
	}
	if misses > 1 {
		t.Fatalf("threshold bounds missed the true threshold %d/8 times", misses)
	}
}

// Training must be dramatically cheaper than scoring every training
// point exactly: the bootstrap rounds plus the full-size pass should
// evaluate well below n² kernels even on a modest dataset.
func TestBoundThresholdCheaperThanExact(t *testing.T) {
	skipUnlessTreeEfficiency(t)
	rng := rand.New(rand.NewSource(40))
	data := gauss2D(rng, 4000)
	c, err := Train(data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	exactCost := int64(len(data)) * int64(len(data))
	if k := c.TrainStats().TrainKernels; k > exactCost/4 {
		t.Fatalf("training used %d kernels; exact pass would be %d", k, exactCost)
	}
}

// With n ≤ R0 no subsampled round runs: the full-size pass scores the
// tiny set exactly and still yields finite, ordered bounds.
func TestBoundThresholdTinyData(t *testing.T) {
	c, err := Train([][]float64{{0}, {0.1}, {0.2}, {10}}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := c.ThresholdBounds()
	if math.IsInf(hi, 1) || lo > c.Threshold() || c.Threshold() > hi {
		t.Fatalf("degenerate bounds for tiny data: t̃=%g outside [%g, %g]", c.Threshold(), lo, hi)
	}
	if r := c.TrainStats().BootstrapRounds; r != 0 {
		t.Fatalf("BootstrapRounds = %d for n ≤ R0, want 0", r)
	}
}

// TestTrainSlowGrowthTerminates trains with growth factors at which
// int(r·HGrowth) truncates back to r. Each round must still grow the
// subsample by at least one row, so training returns.
func TestTrainSlowGrowthTerminates(t *testing.T) {
	data := gauss2D(rand.New(rand.NewSource(43)), 400)
	for _, tc := range []struct {
		r0      int
		hGrowth float64
	}{{1, 1.5}, {200, 1.004}} {
		cfg := testConfig()
		cfg.R0, cfg.HGrowth = tc.r0, tc.hGrowth
		done := make(chan error, 1)
		go func() {
			_, err := Train(data, cfg)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("R0=%d HGrowth=%v: %v", tc.r0, tc.hGrowth, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("R0=%d HGrowth=%v: Train did not return within 30 s", tc.r0, tc.hGrowth)
		}
	}
}

func TestSampleRows(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rows := mustStore([][]float64{{1}, {2}, {3}, {4}, {5}})
	got := sampleRows(rows, 3, rng)
	if got.Len() != 3 {
		t.Fatalf("sampled %d rows, want 3", got.Len())
	}
	seen := map[float64]bool{}
	for i := 0; i < got.Len(); i++ {
		if seen[got.At(i, 0)] {
			t.Fatal("sampleRows drew with replacement")
		}
		seen[got.At(i, 0)] = true
	}
	// k ≥ n returns the store itself and draws nothing.
	used, fresh := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for _, k := range []int{5, 10} {
		if all := sampleRows(rows, k, used); all != rows {
			t.Fatalf("k=%d of 5 returned a new store, want the input itself", k)
		}
	}
	if used.Int63() != fresh.Int63() {
		t.Fatal("sampleRows drew from the RNG for k ≥ n")
	}
	// Original store unharmed.
	for i := 0; i < rows.Len(); i++ {
		if rows.At(i, 0) != float64(i+1) {
			t.Fatal("sampleRows mutated input")
		}
	}
}

func TestScaleHelpers(t *testing.T) {
	if scaleTowardInf(2, 4) != 8 {
		t.Fatal("positive upper bound should grow")
	}
	if scaleTowardInf(-2, 4) != -0.5 {
		t.Fatal("negative upper bound should move toward zero/inf")
	}
	if scaleTowardZero(2, 4) != 0.5 {
		t.Fatal("positive lower bound should shrink")
	}
	if scaleTowardZero(-2, 4) != -8 {
		t.Fatal("negative lower bound should fall")
	}
	if scaleTowardZero(0, 4) != 0 || scaleTowardInf(0, 4) != 0 {
		t.Fatal("zero is a fixed point")
	}
}
