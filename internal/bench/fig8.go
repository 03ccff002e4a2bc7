package bench

import (
	"fmt"
	"sort"

	"tkdc/internal/baseline"
	"tkdc/internal/core"
	"tkdc/internal/dataset"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
	"tkdc/internal/stats"
)

// Figure8 evaluates classification accuracy against exact-KDE ground
// truth in Algorithm 1's convention (see exactGroundTruth): the exact
// t(p) is the p-quantile of the self-contribution corrected densities,
// and every point is labelled by whether its plain exact density, own
// kernel included, falls below it. Each algorithm estimates densities,
// derives its own threshold the same way, classifies, and is scored by
// F1 on the below-threshold class (p = 0.01, as in the paper).
func Figure8(opts Options) ([]Table, error) {
	opts = opts.normalized()
	const p = 0.01

	type panel struct {
		dataset string
		dims    []int
		load    func(n int, seed int64) [][]float64
	}
	panels := []panel{
		{"tmy3", []int{2, 4, 8}, func(n int, s int64) [][]float64 { return dataset.TMY3(n, s) }},
		{"home", []int{2, 4, 8}, func(n int, s int64) [][]float64 { return dataset.Home(n, s) }},
		{"shuttle", []int{2, 4, 7}, func(n int, s int64) [][]float64 { return dataset.Shuttle(n, s) }},
	}

	t := Table{
		Title:   "Figure 8: Classification accuracy (F1 on below-threshold class, p=0.01)",
		Columns: []string{"dataset", "d", "tkdc", "nocut(~sklearn)", "binned(~ks)"},
		Notes: []string{
			"ground truth: exact KDE densities + exact quantile threshold (paper uses 50k-row samples)",
			"paper shape: tkdc ~1.0 everywhere; nocut/sklearn high; binned/ks degrades sharply for d=4",
		},
	}

	n := opts.scaled(50_000, 4_000)
	for _, pn := range panels {
		full := pn.load(n, opts.Seed)
		for _, d := range pn.dims {
			data, err := dataset.TakeColumns(full, d)
			if err != nil {
				return nil, err
			}
			pts, err := points.FromRows(data)
			if err != nil {
				return nil, fmt.Errorf("bench: %w", err)
			}
			truth, _, err := exactGroundTruth(pts, p)
			if err != nil {
				return nil, err
			}

			tkdcF1, err := tkdcAccuracy(data, p, opts.Seed, truth)
			if err != nil {
				return nil, fmt.Errorf("tkdc %s d=%d: %w", pn.dataset, d, err)
			}

			h, err := kernel.ScottBandwidths(pts, 1)
			if err != nil {
				return nil, err
			}
			kern, err := kernel.NewGaussian(h)
			if err != nil {
				return nil, err
			}
			nc, err := baseline.NewNoCut(pts, kern, 0.01)
			if err != nil {
				return nil, err
			}
			nocutF1 := estimatorAccuracy(nc, pts, kern, p, truth)

			binnedCell := "-"
			if d <= baseline.MaxBinnedDim {
				bn, err := baseline.NewBinned(pts, kern)
				if err != nil {
					return nil, err
				}
				binnedCell = fmt.Sprintf("%.3f", estimatorAccuracy(bn, pts, kern, p, truth))
			}
			t.AddRow(pn.dataset, fmt.Sprintf("%d", d),
				fmt.Sprintf("%.3f", tkdcF1),
				fmt.Sprintf("%.3f", nocutF1),
				binnedCell)
		}
	}
	t.Fprint(opts.Out)
	return []Table{t}, nil
}

// exactGroundTruth labels every point exactly the way Algorithm 1 does,
// but with exact densities: the threshold t(p) is the p-quantile of the
// self-contribution-corrected densities (Equation 1), and each point is
// classified by comparing its plain density f(x) against that threshold.
// truth[i] is true when point i is below the threshold (the positive
// class).
func exactGroundTruth(pts *points.Store, p float64) (truth []bool, threshold float64, err error) {
	h, err := kernel.ScottBandwidths(pts, 1)
	if err != nil {
		return nil, 0, err
	}
	kern, err := kernel.NewGaussian(h)
	if err != nil {
		return nil, 0, err
	}
	s := baseline.NewSimple(pts, kern)
	n := pts.Len()
	self := kern.AtZero() / float64(n)
	ds := make([]float64, n)
	for i := 0; i < n; i++ {
		ds[i] = s.Density(pts.Row(i))
	}
	sorted := make([]float64, len(ds))
	for i, d := range ds {
		sorted[i] = d - self
	}
	sort.Float64s(sorted)
	threshold, err = stats.SortedQuantile(sorted, p)
	if err != nil {
		return nil, 0, err
	}
	truth = make([]bool, n)
	for i, d := range ds {
		truth[i] = d < threshold
	}
	return truth, threshold, nil
}

// tkdcAccuracy trains tKDC and scores its labels against the ground truth.
func tkdcAccuracy(data [][]float64, p float64, seed int64, truth []bool) (float64, error) {
	cfg := core.DefaultConfig()
	cfg.P = p
	cfg.Seed = seed
	clf, err := core.Train(data, cfg)
	if err != nil {
		return 0, err
	}
	var conf stats.Confusion
	for i, x := range data {
		label, err := clf.Classify(x)
		if err != nil {
			return 0, err
		}
		conf.Add(label == core.Low, truth[i])
	}
	return conf.F1(), nil
}

// estimatorAccuracy scores a baseline estimator with the same convention
// as exactGroundTruth: densities for all points, own corrected-quantile
// threshold, plain densities classified against it, F1 against ground
// truth.
func estimatorAccuracy(est baseline.Estimator, pts *points.Store, kern *kernel.Gaussian, p float64, truth []bool) float64 {
	n := pts.Len()
	self := kern.AtZero() / float64(n)
	ds := make([]float64, n)
	for i := 0; i < n; i++ {
		ds[i] = est.Density(pts.Row(i))
	}
	sorted := make([]float64, len(ds))
	for i, d := range ds {
		sorted[i] = d - self
	}
	sort.Float64s(sorted)
	threshold, err := stats.SortedQuantile(sorted, p)
	if err != nil {
		return 0
	}
	var conf stats.Confusion
	for i, d := range ds {
		conf.Add(d < threshold, truth[i])
	}
	return conf.F1()
}
