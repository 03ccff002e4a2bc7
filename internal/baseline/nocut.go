package baseline

import (
	"tkdc/internal/core"
	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
)

// NoCut is the tolerance-only tree traversal of Gray & Moore: it refines
// per-region density bounds until the relative gap satisfies
// fu − fl ≤ ε·fl, with no knowledge of any classification threshold. This
// reproduces the paper's "nocut" baseline, which in turn emulates
// scikit-learn's k-d tree KDE (Section 4.1). It is tKDC's own Algorithm 2
// traversal, core's tree backend, with only the relative rule armed: tKDC
// with the threshold rule and the grid disabled, as Table 2 defines it.
type NoCut struct {
	be    core.DensityBackend
	n     int
	eps   float64
	stats core.QueryStats
}

// NewNoCut builds the tolerance-only estimator. eps is the relative error
// target (0.01 in the paper's experiments); eps ≤ 0 computes exactly.
func NewNoCut(data *points.Store, kern *kernel.Gaussian, eps float64) (*NoCut, error) {
	tree, err := kdtree.Build(data, kdtree.Options{})
	if err != nil {
		return nil, err
	}
	// The default backend resolves by dimension and would pick the
	// near-first start above d = 8; nocut is the tree traversal at
	// every d.
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTree
	return &NoCut{be: core.NewBackend(tree, kern, cfg), n: tree.Size, eps: eps}, nil
}

// Name returns "nocut".
func (nc *NoCut) Name() string { return "nocut" }

// N returns the training set size.
func (nc *NoCut) N() int { return nc.n }

// Kernels returns total kernel evaluations.
func (nc *NoCut) Kernels() int64 { return nc.stats.Kernels() }

// Density estimates f(x) to relative precision eps, returning the bound
// midpoint.
func (nc *NoCut) Density(x []float64) float64 {
	_, _, est := nc.be.EstimateDensity(x, nc.eps, &nc.stats)
	return est
}

// Bounds returns certified density bounds with fu − fl ≤ ε·fl.
func (nc *NoCut) Bounds(x []float64) (fl, fu float64) {
	fl, fu, _ = nc.be.EstimateDensity(x, nc.eps, &nc.stats)
	return fl, fu
}
