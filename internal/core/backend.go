package core

import (
	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
)

// Start tags: the two places Algorithm 2's loop starts. Classifier.Backend,
// snapshots (v3), traces and the server's /model and /metrics report
// them.
const (
	// BackendAuto is what Train records in the deprecated
	// Config.Backend; the data's dimension picks the start.
	BackendAuto = "auto"
	// BackendTree is the paper's k-d tree traversal: Algorithm 2
	// started at the root.
	BackendTree = "tree"
	// BackendSampling names the near-first start: a DEANN-style near
	// phase resolves the query's own neighbourhood first, and Algorithm
	// 2's loop refines the frontier it leaves. The tag predates the
	// start; snapshots carry it, so it keeps its name, although nothing
	// is sampled.
	BackendSampling = "sampling"
)

// AutoTreeMaxDim is the largest dimensionality at which training starts
// at the tree's root. From d = 3 up the near-first start answers faster
// (BenchmarkBackendHeadToHead, BENCH_core.json); at d ≤ 2 its near
// phase sums whole nodes the tree's bounds would decide, so the cut
// stays until one start serves every d.
const AutoTreeMaxDim = 2

// resolveBackend returns the start that data of dimension dim trains
// with.
func resolveBackend(dim int) string {
	if dim <= AutoTreeMaxDim {
		return BackendTree
	}
	return BackendSampling
}

// NewRootEstimator returns EstimateDensity of an engine that starts
// Algorithm 2 at the root of a built index, at every d: the
// tolerance-only traversal the nocut baseline runs (Gray & Moore). The
// function it returns refines to relative precision rel (fu − fl ≤
// rel·fl; rel ≤ 0 is exact), reports the bound midpoint as est, and is
// not safe for concurrent use.
func NewRootEstimator(tree *kdtree.Tree, kern *kernel.Gaussian) func(x []float64, rel float64, stats *QueryStats) (fl, fu, est float64) {
	return newDensityEstimator(tree, kern, DefaultConfig(), BackendTree).EstimateDensity
}
