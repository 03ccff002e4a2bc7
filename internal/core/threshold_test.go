package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tkdc/internal/kernel"
	"tkdc/internal/points"
	"tkdc/internal/stats"
)

// bruteThreshold computes the exact self-contribution-corrected p-quantile
// of training densities — the definition of t(p) in Equation 1.
func bruteThreshold(data *points.Store, b, p float64) float64 {
	h, _ := kernel.ScottBandwidths(data, b)
	kern, _ := kernel.NewGaussian(h)
	n := data.Len()
	self := kern.AtZero() / float64(n)
	ds := make([]float64, n)
	for i := 0; i < n; i++ {
		ds[i] = exactDensity(data, kern, data.Row(i)) - self
	}
	sort.Float64s(ds)
	t, _ := stats.SortedQuantile(ds, p)
	return t
}

// bootstrap runs Algorithm 3 over data the way TrainStore does: against
// the full-size KDE that the classifier would serve.
func bootstrap(t *testing.T, data *points.Store, cfg Config, rng *rand.Rand) thresholdBound {
	t.Helper()
	kern, tree, err := buildKDE(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := boundThreshold(data, kern, tree, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestBoundThresholdBracketsTrueThreshold verifies the bootstrap's core
// guarantee across seeds: the returned bounds contain the exact t(p) (the
// failure probability δ = 0.01 makes a miss across 8 seeds vanishingly
// unlikely; allow one).
func TestBoundThresholdBracketsTrueThreshold(t *testing.T) {
	misses := 0
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := mustStore(gauss2D(rng, 1500))
		cfg := testConfig().normalized()
		tb := bootstrap(t, data, cfg, rng)
		trueT := bruteThreshold(data, cfg.BandwidthFactor, cfg.P)
		// Allow the ε precision the estimates carry.
		slack := 2 * cfg.Epsilon * trueT
		if trueT < tb.lo-slack || trueT > tb.hi+slack {
			misses++
			t.Logf("seed %d: true t(p)=%g outside [%g, %g]", seed, trueT, tb.lo, tb.hi)
		}
		if tb.lo > tb.hi {
			t.Fatalf("seed %d: inverted bounds [%g, %g]", seed, tb.lo, tb.hi)
		}
		if tb.rounds < 1 {
			t.Fatalf("seed %d: no bootstrap rounds recorded", seed)
		}
	}
	if misses > 1 {
		t.Fatalf("threshold bounds missed the true threshold %d/8 times", misses)
	}
}

// The bootstrap must be dramatically cheaper than scoring every training
// point exactly: its kernel evaluations should be well below n² even on a
// modest dataset.
func TestBoundThresholdCheaperThanExact(t *testing.T) {
	skipUnlessTreeEfficiency(t)
	rng := rand.New(rand.NewSource(40))
	data := mustStore(gauss2D(rng, 4000))
	cfg := testConfig().normalized()
	tb := bootstrap(t, data, cfg, rng)
	exactCost := int64(data.Len()) * int64(data.Len())
	if tb.queries.Kernels() > exactCost/4 {
		t.Fatalf("bootstrap used %d kernels; exact pass would be %d", tb.queries.Kernels(), exactCost)
	}
}

func TestBoundThresholdTinyData(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data := mustStore([][]float64{{0}, {0.1}, {0.2}, {10}})
	cfg := testConfig().normalized()
	tb := bootstrap(t, data, cfg, rng)
	if math.IsInf(tb.hi, 1) || tb.lo > tb.hi {
		t.Fatalf("degenerate bounds for tiny data: [%g, %g]", tb.lo, tb.hi)
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
