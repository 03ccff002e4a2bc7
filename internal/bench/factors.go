package bench

import (
	"fmt"

	"tkdc/internal/core"
	"tkdc/internal/dataset"
	"tkdc/internal/kdtree"
)

// factorConfig is one optimization configuration of Figures 12/16.
type factorConfig struct {
	name string
	mut  func(*core.Config)
}

// factorData builds the 4-d tmy3-like workload both factor analyses use
// (the paper uses 500k rows of 4-d tmy3).
func factorData(opts Options) ([][]float64, error) {
	n := opts.scaled(500_000, 8_000)
	return dataset.TakeColumns(dataset.TMY3(n, opts.Seed), 4)
}

// measureFactor trains with the given config and measures the
// classification pass over the dataset (training excluded, matching the
// paper's Figure 12 methodology).
func measureFactor(data [][]float64, opts Options, mut func(*core.Config)) (pointsPerSec, kernelsPerPoint float64, err error) {
	cfg := opts.config()
	mut(&cfg)
	q := opts.MaxQueries
	// The no-pruning configurations are Θ(n) per query; cap harder.
	if cfg.DisableThresholdRule {
		q = min(q, 300)
	}
	m, err := MeasureTKDC(data, cfg, q)
	if err != nil {
		return 0, 0, err
	}
	// Grid hits perform no kernel evaluations; they still count as
	// classified points.
	return m.QueryThroughput(), m.KernelsPerQuery, nil
}

// Figure12 is the cumulative factor analysis: optimizations are enabled
// one at a time on top of a tolerance-less tree-traversal baseline.
func Figure12(opts Options) ([]Table, error) {
	opts = opts.normalized()
	data, err := factorData(opts)
	if err != nil {
		return nil, err
	}
	configs := []factorConfig{
		{"Baseline", func(c *core.Config) {
			c.DisableThresholdRule = true
			c.DisableToleranceRule = true
			c.DisableGrid = true
			c.Split = kdtree.SplitMedian
		}},
		{"+Threshold", func(c *core.Config) {
			c.DisableToleranceRule = true
			c.DisableGrid = true
			c.Split = kdtree.SplitMedian
		}},
		{"+Tolerance", func(c *core.Config) {
			c.DisableGrid = true
			c.Split = kdtree.SplitMedian
		}},
		{"+Equiwidth", func(c *core.Config) {
			c.DisableGrid = true
		}},
		{"+Grid", func(c *core.Config) {}},
	}
	t := Table{
		Title:   "Figure 12: Cumulative factor analysis (tmy3-like, d=4, classification only)",
		Columns: []string{"configuration", "points/s", "kernels/pt"},
		Notes:   []string{"paper shape: +Threshold delivers the bulk (~500x); each later optimization adds an increment"},
	}
	for _, fc := range configs {
		pps, kpp, err := measureFactor(data, opts, fc.mut)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fc.name, err)
		}
		t.AddRow(fc.name, fmtRate(pps), fmtCount(kpp))
	}
	t.Fprint(opts.Out)
	return []Table{t}, nil
}

// Figure16 is the lesion analysis: each optimization is removed
// individually from the complete implementation.
func Figure16(opts Options) ([]Table, error) {
	opts = opts.normalized()
	data, err := factorData(opts)
	if err != nil {
		return nil, err
	}
	configs := []factorConfig{
		{"Complete", func(c *core.Config) {}},
		{"-Threshold", func(c *core.Config) { c.DisableThresholdRule = true }},
		{"-Tolerance", func(c *core.Config) { c.DisableToleranceRule = true }},
		{"-Equiwidth", func(c *core.Config) { c.Split = kdtree.SplitMedian }},
		{"-Grid", func(c *core.Config) { c.DisableGrid = true }},
	}
	t := Table{
		Title:   "Figure 16: Lesion analysis (tmy3-like, d=4, classification only)",
		Columns: []string{"configuration", "points/s", "kernels/pt"},
		Notes:   []string{"paper shape: removing the threshold rule erases nearly all gains; every optimization contributes"},
	}
	for _, fc := range configs {
		pps, kpp, err := measureFactor(data, opts, fc.mut)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fc.name, err)
		}
		t.AddRow(fc.name, fmtRate(pps), fmtCount(kpp))
	}
	t.Fprint(opts.Out)
	return []Table{t}, nil
}
