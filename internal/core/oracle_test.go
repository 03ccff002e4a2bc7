package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tkdc/internal/dataset"
	"tkdc/internal/stats"
)

// TestThresholdOracle is the threshold half of the differential oracle:
// it trains seeded models on three kinds of data and checks each one
// against the exact KDE. The refined t̃ lies within ε·t of the exact
// corrected p-quantile t, the trained bounds bracket t̃, and every
// training row whose exact density lies outside the ε band around t gets
// the exact KDE's label.
//
// The sampling backend's bounds hold with probability 1−δ per query, and
// a row whose far-field sample budget runs out keeps a band wider than
// ε·t, so up to a share 4δ of its rows may miss: labels may disagree on
// that share, as perfbench's kdeCheck allows, and t̃ need only lie
// between the exact corrected quantiles at p ∓ 4δ, widened by ε·t.
func TestThresholdOracle(t *testing.T) {
	cases := []struct {
		name    string
		backend string
		rows    func(seed int64) [][]float64
		hGrowth float64
		// upperRetry requires some seed to take a bootstrap round that
		// fails on the upper side, so relaxUpper runs.
		upperRetry bool
	}{
		{name: "gauss2/tree", backend: BackendTree, rows: func(seed int64) [][]float64 {
			return gauss2D(rand.New(rand.NewSource(seed)), 1500)
		}},
		// tmy3's quantile grows faster between rounds than HBuffer
		// covers. HGrowth = 2 puts four rounds below n = 2000, so the
		// drift per round is small enough for the geometric retry step.
		{name: "tmy3/tree", backend: BackendTree, rows: func(seed int64) [][]float64 {
			return dataset.TMY3(2000, seed)
		}, hGrowth: 2, upperRetry: true},
		// n > 2·MinSamples, so the far field is sampled.
		{name: "hep27/sampling", backend: BackendSampling, rows: func(seed int64) [][]float64 {
			return dataset.HEP(1200, seed)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			upperRetries := 0
			for seed := int64(1); seed <= 8; seed++ {
				rows := tc.rows(seed)
				cfg := DefaultConfig()
				cfg.Backend = tc.backend
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
				miss := 0.0 // share of rows whose estimate may miss the ε band
				if tc.backend == BackendSampling {
					miss = 4 * cfg.Delta
				}

				got := c.Threshold()
				qLo, _ := stats.SortedQuantile(corrected, cfg.P-miss)
				qHi, _ := stats.SortedQuantile(corrected, cfg.P+miss)
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
				if allowed := int(miss * float64(checked)); disagree > allowed {
					t.Errorf("seed %d: %d of %d labels outside the ε band disagree with the exact KDE, allowed %d", seed, disagree, checked, allowed)
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
