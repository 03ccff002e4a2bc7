package core

import (
	"errors"
	"math/rand"
	"sort"

	"tkdc/internal/points"
	"tkdc/internal/stats"
)

// probeRelPrecision is the relative density precision the probe asks of
// its engine: tight enough (1%) that drift comparisons — which look for
// tens-of-percent threshold movement — are unaffected by estimation
// error.
const probeRelPrecision = 0.01

// ProbeThreshold cheaply re-estimates the classification threshold t(p)
// over data without training a classifier: it draws refRows reference
// rows and probes held-out probe rows (disjointly and seeded, so the
// probe is deterministic for a fixed seed), estimates each probe's
// density under the reference mini-KDE with Scott's-rule bandwidths to
// 1% relative precision from the start training would pick, and returns
// the p-quantile. Holding the probe rows out of the reference set plays
// the role of the self-contribution correction of Section 2.3: no probe
// contributes density to itself.
//
// The estimate is a rough, biased stand-in for the trained threshold
// (small-sample bandwidths differ from full-dataset ones), so it is
// meant for relative comparisons — detecting that the distribution under
// a live model has drifted — not as a serving threshold. Cost is at most
// O(refRows · probes) kernel evaluations, independent of data.Len(), and
// lower when the 1% rule settles whole boxes from their bounds.
func ProbeThreshold(data *points.Store, cfg Config, refRows, probes int, seed int64) (float64, error) {
	cfg = cfg.normalized()
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	n := data.Len()
	if n < 3 {
		return 0, errors.New("core: probe needs at least 3 rows")
	}
	if refRows < 2 {
		refRows = 2
	}
	if probes < 1 {
		probes = 1
	}
	if refRows+probes > n {
		// Shrink to fit, preserving the reference:probe ratio but keeping
		// both ends usable.
		refRows = n * refRows / (refRows + probes)
		if refRows < 2 {
			refRows = 2
		}
		probes = n - refRows
	}

	// One draw of refRows+probes distinct rows; the first refRows become
	// the mini-KDE, the rest the held-out probes.
	ref := points.New(refRows, data.Dim)
	held := points.New(probes, data.Dim)
	points.SampleSlots(rand.New(rand.NewSource(seed)), n, refRows+probes, func(i, slot int) {
		if i < refRows {
			copy(ref.Row(i), data.Row(slot))
		} else {
			copy(held.Row(i-refRows), data.Row(slot))
		}
	})

	kern, tree, err := buildKDE(ref, cfg)
	if err != nil {
		return 0, err
	}
	est := newDensityEstimator(tree, kern, cfg, resolveBackend(data.Dim))
	var qs QueryStats
	densities := make([]float64, probes)
	for i := range densities {
		_, _, densities[i] = est.EstimateDensity(held.Row(i), probeRelPrecision, &qs)
	}
	sort.Float64s(densities)
	return stats.SortedQuantile(densities, cfg.P)
}
