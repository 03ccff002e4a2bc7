package core

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"tkdc/internal/dataset"
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

// TestResumedRoundMatchesFullRescore checks the invariant a resumed
// bootstrap attempt rests on, on both starts: after an upper failure,
// re-scoring only the rows at or above the failed hi at the raised
// window leaves every density bit for bit where a full re-score at that
// window puts it. The first window's hi lies at half the u-th rank of
// the sample's exact densities, and the attempts follow relaxUpper until
// the window holds the u-th statistic.
func TestResumedRoundMatchesFullRescore(t *testing.T) {
	cases := []struct {
		name  string
		rows  [][]float64
		start string
	}{
		{"shuttle2/tree", shuttle2(1000, 3), BackendTree},
		{"tmy3/sampling", dataset.TMY3(1000, 2), BackendSampling},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Workers = 4
			sample, err := drawRound(mustStore(tc.rows), 800, cfg, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			if sample.start != tc.start {
				t.Fatalf("start %q, want %q", sample.start, tc.start)
			}
			s := sample.scored.Len()
			l, u, err := stats.QuantileCIIndices(s, cfg.P, cfg.Delta)
			if err != nil {
				t.Fatal(err)
			}
			sorted := make([]float64, s)
			sample.score(sorted, nil, math.Inf(-1), math.Inf(1)) // exact
			sort.Float64s(sorted)
			lo, hi := sorted[l-1]/cfg.HBuffer, sorted[(u+1)/2-1]

			vals, full := make([]float64, s), make([]float64, s)
			sample.score(vals, nil, lo, hi)
			resumes := 0
			for {
				copy(sorted, vals)
				sort.Float64s(sorted)
				du := sorted[u-1]
				if du <= hi {
					break
				}
				if resumes++; resumes > 25 {
					t.Fatal("the window never reached the u-th statistic")
				}
				rows := rowsAtOrAbove(vals, hi, nil)
				hi = relaxUpper(hi, du, sort.SearchFloat64s(sorted, hi), u, tc.start == BackendTree, cfg)
				resumed := sample.score(vals, rows, lo, hi)
				whole := sample.score(full, nil, lo, hi)
				for i := range vals {
					if math.Float64bits(vals[i]) != math.Float64bits(full[i]) {
						t.Fatalf("resume %d: row %d reads %g resumed, %g re-scored in full", resumes, i, vals[i], full[i])
					}
				}
				if resumed.Kernels() >= whole.Kernels() {
					t.Errorf("resume %d re-scored %d of %d rows with %d kernels, a full re-score takes %d", resumes, len(rows), s, resumed.Kernels(), whole.Kernels())
				}
			}
			if resumes == 0 {
				t.Fatal("the first window did not fail on the upper side")
			}
		})
	}
}

// TestResumedPassMatchesFullRescore is the same check for the full-size
// pass with the grid on (d = 2), where the grid check reads tu too. At
// p = 0.1 a pass whose tu lies at half the quantile's rank fails on its
// upper side, and re-scoring only the rows at or above tu at
// HBackoff·tu must match a full re-score bit for bit.
func TestResumedPassMatchesFullRescore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.P = 0.1
	cfg.Workers = 4
	c, err := Train(shuttle2(1000, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.grid == nil {
		t.Fatal("the grid is off at d = 2")
	}
	n := c.N()
	vals, full, sorted := make([]float64, n), make([]float64, n), make([]float64, n)
	tl := c.tLow / cfg.HBuffer
	c.scorePass(sorted, nil, tl, math.Inf(1))
	sort.Float64s(sorted)
	tu := sorted[n/20-1]
	if qs := c.scorePass(vals, nil, tl, tu); !qs.GridHit {
		t.Fatal("no row was a grid hit at the first window")
	}
	resumes := 0
	for {
		copy(sorted, vals)
		sort.Float64s(sorted)
		if q, _ := stats.SortedQuantile(sorted, cfg.P); q <= tu {
			break
		}
		resumes++
		rows := rowsAtOrAbove(vals, tu, nil)
		tu *= cfg.HBackoff
		resumed := c.scorePass(vals, rows, tl, tu)
		whole := c.scorePass(full, nil, tl, tu)
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(full[i]) {
				t.Fatalf("resume %d: row %d reads %g resumed, %g re-scored in full", resumes, i, vals[i], full[i])
			}
		}
		if resumed.Kernels() >= whole.Kernels() {
			t.Errorf("resume %d re-scored %d of %d rows with %d kernels, a full re-score takes %d", resumes, len(rows), n, resumed.Kernels(), whole.Kernels())
		}
	}
	if resumes == 0 {
		t.Fatal("the first window did not fail on the upper side")
	}
}
