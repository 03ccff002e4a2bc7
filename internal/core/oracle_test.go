package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tkdc/internal/dataset"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
	"tkdc/internal/stats"
)

// TestThresholdOracle is the threshold half of the differential oracle:
// it trains seeded models on four kinds of data and checks each one
// against the exact KDE. The refined t̃ lies within ε·t of the exact
// corrected p-quantile t, the trained bounds bracket t̃, and every
// training row whose exact density lies outside the ε band around t gets
// the exact KDE's label.
func TestThresholdOracle(t *testing.T) {
	cases := []struct {
		name    string
		rows    func(seed int64) [][]float64
		seeds   int64 // seeds 1…seeds; 8 when zero
		hGrowth float64
		// upperRetry requires some seed to take a bootstrap round that
		// fails on the upper side, so relaxUpper runs.
		upperRetry bool
		// cancelled names a seed whose exact corrected densities cancel:
		// its t̃ need only lie between the exact corrected quantiles at
		// p ∓ 4δ, widened by ε·t.
		cancelled int64
	}{
		{name: "gauss2/tree", rows: func(seed int64) [][]float64 {
			return gauss2D(rand.New(rand.NewSource(seed)), 1500)
		}},
		// tmy3's quantile grows faster between rounds than HBuffer
		// covers. HGrowth = 2 puts four rounds below n = 2000, and some
		// round fails on the upper side and jumps to HBackoff·du.
		{name: "tmy3/sampling", rows: func(seed int64) [][]float64 {
			return dataset.TMY3(2000, seed)
		}, hGrowth: 2, upperRetry: true},
		// Shuttle's first two columns at HGrowth = 2: seed 8 fails a
		// round on the upper side on the tree start, whose clipped du
		// takes relaxUpper's geometric step.
		{name: "shuttle2/tree", rows: func(seed int64) [][]float64 {
			return shuttle2(1000, seed)
		}, hGrowth: 2, upperRetry: true},
		// At n = 1 200, K(0)/n lies ~10¹⁴ above t. Equation 1's
		// corrected density f − K(0)/n then cannot resolve a density
		// below one ulp of K(0)/n: on seed 3 eleven training rows, in
		// the classifier and in bruteDensities alike, correct to exactly
		// 0, and the quantile's row reads one ulp of K(0)/n (7.3e-40)
		// apart in the two sums, +7.7% of t. Scoring training rows
		// without their own term (the ROADMAP's leave-one-out item) is
		// the cure; until then seed 3 keeps the wider window. Every
		// label holds.
		{name: "hep27/sampling", rows: func(seed int64) [][]float64 {
			return dataset.HEP(1200, seed)
		}, cancelled: 3},
		{name: "hep27-4096/sampling", rows: func(seed int64) [][]float64 {
			return dataset.HEP(4096, seed)
		}, seeds: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			upperRetries := 0
			seeds := tc.seeds
			if seeds == 0 {
				seeds = 8
			}
			for seed := int64(1); seed <= seeds; seed++ {
				rows := tc.rows(seed)
				cfg := DefaultConfig()
				cfg.Seed = seed
				if tc.hGrowth != 0 {
					cfg.HGrowth = tc.hGrowth
				}
				c, err := Train(rows, cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				data := c.TrainingData()
				exact, self := bruteDensities(data, cfg.BandwidthFactor)
				corrected := make([]float64, len(exact))
				for i, f := range exact {
					corrected[i] = f - self
				}
				sort.Float64s(corrected)
				trueT, _ := stats.SortedQuantile(corrected, cfg.P)
				band := cfg.Epsilon * trueT
				window := 0.0 // quantile slack around p for a cancelled seed
				if seed == tc.cancelled {
					window = 4 * cfg.Delta
				}

				got := c.Threshold()
				qLo, _ := stats.SortedQuantile(corrected, cfg.P-window)
				qHi, _ := stats.SortedQuantile(corrected, cfg.P+window)
				if got < qLo-band || got > qHi+band {
					t.Errorf("seed %d: t̃ = %g, exact t(p) = %g: outside [%g, %g] ± ε·t", seed, got, trueT, qLo, qHi)
				}
				if lo, hi := c.ThresholdBounds(); !(lo <= got && got <= hi) {
					t.Errorf("seed %d: t̃ = %g outside the trained bounds [%g, %g]", seed, got, lo, hi)
				}

				labels, err := c.ClassifyAll(rows)
				if err != nil {
					t.Fatal(err)
				}
				checked, disagree := 0, 0
				for i, f := range exact {
					if math.Abs(f-trueT) <= band {
						continue
					}
					checked++
					if (labels[i] == High) != (f > trueT) {
						disagree++
					}
				}
				if disagree > 0 {
					t.Errorf("seed %d: %d of %d labels outside the ε band disagree with the exact KDE", seed, disagree, checked)
				}

				if tc.upperRetry {
					// Replay Train's rounds: boundThreshold is the only
					// consumer of the seeded RNG.
					tb, err := boundThreshold(data, cfg.normalized(), rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					upperRetries += tb.upperRetries
				}
			}
			if tc.upperRetry && upperRetries == 0 {
				t.Error("no seed took an upper-failure retry")
			}
		})
	}
}

// TestOracleGauss32 runs the oracle where the kernel's peak dwarfs the
// threshold: on gauss d=32 (8 000 training rows, seed 1) K(0)/t exceeds
// 2⁵³, so a running bound that ever held K(0) cannot resolve t. For the
// start the data picks (the near-first start at d = 32; the tree start's
// bounds there are pinned by TestRunBoundsMatchHeapAtHighPeak) it checks
// that t̃ lies within ε·t of the exact corrected quantile, that every
// held-out row whose exact density lies outside the ε band gets the
// exact label, and that DensityBounds(x, 0.01) brackets the exact
// density with its midpoint within 1% of it.
func TestOracleGauss32(t *testing.T) {
	rows := dataset.Gauss(9024, 32, 1)
	train, held := rows[:8000], rows[8000:]
	store, err := points.FromRows(train)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	h, err := kernel.ScottBandwidths(store, cfg.BandwidthFactor)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := kernel.NewGaussian(h)
	if err != nil {
		t.Fatal(err)
	}
	trueT := bruteThreshold(store, cfg.BandwidthFactor, cfg.P)
	if peak := kern.AtZero() / trueT; peak <= 0x1p53 {
		t.Fatalf("K(0)/t = %g, want above 2⁵³", peak)
	}
	band := cfg.Epsilon * trueT
	heldExact := make([]float64, len(held))
	for i, x := range held {
		heldExact[i] = exactDensity(store, kern, x)
	}

	t.Run("auto", func(t *testing.T) {
		cfg.Seed = 1
		c, err := Train(train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Threshold(); math.Abs(got-trueT) > band {
			t.Errorf("t̃ = %g, exact t(p) = %g: %+.3g%%, outside ε·t", got, trueT, 100*(got-trueT)/trueT)
		}
		labels, err := c.ClassifyAll(held)
		if err != nil {
			t.Fatal(err)
		}
		wrong, offContract := 0, 0
		for i, f := range heldExact {
			if math.Abs(f-trueT) > band && (labels[i] == High) != (f > trueT) {
				wrong++
			}
			fl, fu, err := c.DensityBounds(held[i], 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if !brackets(fl, fu, f) || math.Abs(0.5*(fl+fu)-f) > 0.01*f {
				offContract++
			}
		}
		if wrong > 0 {
			t.Errorf("%d of %d held-out labels outside the ε band disagree with the exact KDE", wrong, len(held))
		}
		if offContract > 0 {
			t.Errorf("%d of %d DensityBounds(x, 0.01) answers miss f or put the midpoint over 1%% off", offContract, len(held))
		}
	})
}
