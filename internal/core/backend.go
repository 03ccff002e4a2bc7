package core

import (
	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
)

// DensityBackend is the density-estimation engine behind one query: it
// produces certified lower/upper density bounds under tKDC's threshold
// and tolerance stopping rules (Algorithm 2's contract) together with a
// point estimate, and accounts the work performed into QueryStats. Both
// implementations run Algorithm 2's one refinement loop and differ only
// in where it starts: the tree start at the root, the near-first start
// (BackendSampling) at the frontier its near phase leaves.
//
// Implementations are not safe for concurrent use; the classifier pools
// one per goroutine.
type DensityBackend interface {
	// BoundDensity refines bounds for x until the threshold rule
	// (fl > tu or fu < tl) or the tolerance rule (fu−fl < tolCut) stops
	// it, returning fl ≤ est ≤ fu. est is the backend's point estimate
	// of f(x); classification compares est to the threshold. The tree
	// start reports the midpoint. The near-first start reports the bound
	// on the decided side instead: fl when fl > tu, fu when fu < tl.
	BoundDensity(x []float64, tl, tu, tolCut float64, stats *QueryStats) (fl, fu, est float64)
	// EstimateDensity tightens bounds to relative precision rel
	// (fu − fl ≤ rel·fl) regardless of any threshold; rel ≤ 0 demands an
	// exact density.
	EstimateDensity(x []float64, rel float64, stats *QueryStats) (fl, fu, est float64)
	// Name returns the backend tag (BackendTree or BackendSampling).
	Name() string
	// Recycle trims any oversized scratch state before the backend
	// returns to the classifier's pool.
	Recycle()
}

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

// NewBackend constructs the density backend that starts at start
// (BackendTree or BackendSampling) over a built index. Every query path
// in the package — serving, the training refinement pass, the threshold
// bootstrap's mini-KDEs, the drift probe — builds backends through here;
// the nocut baseline asks it for the tree start at every d. cfg supplies
// the pruning-rule switches and must be valid (normalized and validated,
// as DefaultConfig is).
func NewBackend(tree *kdtree.Tree, kern *kernel.Gaussian, cfg Config, start string) DensityBackend {
	if start == BackendSampling {
		return newNearFirst(tree, kern, cfg)
	}
	return newDensityEstimator(tree, kern, cfg.DisableThresholdRule, cfg.DisableToleranceRule)
}

// --- tree backend -----------------------------------------------------

// The tree backend is densityEstimator itself: both interface methods
// start the refinement loop at the root and report the bound midpoint as
// the point estimate.

// BoundDensity implements DensityBackend over Algorithm 2's traversal.
func (e *densityEstimator) BoundDensity(x []float64, tl, tu, tolCut float64, stats *QueryStats) (fl, fu, est float64) {
	fl, fu = e.refine(x, e.boundRules(tl, tu, tolCut), "tree/refine", stats)
	return fl, fu, 0.5 * (fl + fu)
}

// EstimateDensity implements DensityBackend over the same traversal with
// only the relative rule armed.
func (e *densityEstimator) EstimateDensity(x []float64, rel float64, stats *QueryStats) (fl, fu, est float64) {
	fl, fu = e.refine(x, estimateRules(rel), "tree/estimate", stats)
	return fl, fu, 0.5 * (fl + fu)
}

// Name returns BackendTree.
func (e *densityEstimator) Name() string { return BackendTree }

// Recycle drops an oversized refine heap before pooling. One
// pathological query (a dense region with pruning disabled, say) can
// grow the heap to O(nodes); without the cap that backing array would be
// pinned by the pool for the classifier's lifetime and multiplied across
// every pooled backend.
func (e *densityEstimator) Recycle() {
	if cap(e.heap.items) > maxPooledHeapItems {
		e.heap.items = nil
	}
}
