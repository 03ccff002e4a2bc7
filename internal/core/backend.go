package core

import (
	"fmt"
	"math"

	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
)

// DensityBackend is the density-estimation engine behind one query: it
// produces lower/upper density bounds under tKDC's threshold and
// tolerance stopping rules (Algorithm 2's contract) together with a
// point estimate, and accounts the work performed into QueryStats.
//
// Implementations are not safe for concurrent use; the classifier pools
// one per goroutine. The bounds' nature differs per backend — see
// Certified.
type DensityBackend interface {
	// BoundDensity refines bounds for x until the threshold rule
	// (fl > tu or fu < tl), the tolerance rule (fu−fl < tolCut), or the
	// backend's budget stops it, returning fl ≤ est ≤ fu. est is the
	// backend's best point estimate of f(x); classification compares est
	// to the threshold. An answer the sampling backend's certified
	// envelope decides without a sample reports the bound on its decided
	// side instead: fl when fl > tu, fu when fu < tl.
	BoundDensity(x []float64, tl, tu, tolCut float64, stats *QueryStats) (fl, fu, est float64)
	// EstimateDensity tightens bounds to relative precision rel
	// (fu − fl ≤ rel·fl) regardless of any threshold; rel ≤ 0 demands an
	// exact density.
	EstimateDensity(x []float64, rel float64, stats *QueryStats) (fl, fu, est float64)
	// Name returns the backend tag (BackendTree or BackendSampling).
	Name() string
	// Certified reports whether the bounds are deterministic certificates
	// (tree traversal) rather than probabilistic confidence bands valid
	// with probability ≥ 1−δ (sampling).
	Certified() bool
	// Recycle trims any oversized scratch state before the backend
	// returns to the classifier's pool.
	Recycle()
}

// Backend names accepted by Config.Backend.
const (
	// BackendAuto selects the backend by dimension: tree for
	// d ≤ AutoTreeMaxDim, sampling above.
	BackendAuto = "auto"
	// BackendTree is the paper's certified k-d tree traversal
	// (Algorithm 2).
	BackendTree = "tree"
	// BackendSampling is the DEANN-style split estimator: exact near
	// field plus a seeded random sample of the far field with a
	// variance-derived confidence band.
	BackendSampling = "sampling"
)

// AutoTreeMaxDim is the largest dimensionality at which BackendAuto
// keeps the tree traversal. The tree's answers are certified on every
// query, the sampler's only where its envelope decided.
// BenchmarkBackendHeadToHead (BENCH_core.json) has the sampler answering
// faster at every d from 4 to 32, so the cut marks no measured
// crossover; it stands until the backend is chosen from measured work
// (the ROADMAP's backend item).
const AutoTreeMaxDim = 8

// Backends lists the valid Config.Backend values.
func Backends() []string {
	return []string{BackendAuto, BackendTree, BackendSampling}
}

// validBackend reports whether name is a recognized backend selector.
func validBackend(name string) bool {
	switch name {
	case "", BackendAuto, BackendTree, BackendSampling:
		return true
	}
	return false
}

// resolveBackend maps a configured backend selector to a concrete
// backend tag for data of the given dimensionality.
func resolveBackend(name string, dim int) string {
	if name == "" || name == BackendAuto {
		if dim <= AutoTreeMaxDim {
			return BackendTree
		}
		return BackendSampling
	}
	return name
}

// NewBackend constructs the configured density backend over a built
// index. Every query path in the package — serving, the training
// refinement pass, the threshold bootstrap's mini-KDEs, the drift probe —
// builds backends through here, so one Config selects the engine
// everywhere; the nocut baseline builds its tree backend here too. cfg
// must be valid (normalized and validated, as DefaultConfig is).
func NewBackend(tree *kdtree.Tree, kern *kernel.Gaussian, cfg Config) DensityBackend {
	switch resolveBackend(cfg.Backend, tree.Dim) {
	case BackendSampling:
		return newSampler(tree, kern, cfg)
	default:
		return newDensityEstimator(tree, kern, cfg.DisableThresholdRule, cfg.DisableToleranceRule)
	}
}

// --- tree backend -----------------------------------------------------

// The tree backend is densityEstimator itself: both interface methods
// run its one refinement loop and report the bound midpoint as the point
// estimate.

// BoundDensity implements DensityBackend over Algorithm 2's traversal.
func (e *densityEstimator) BoundDensity(x []float64, tl, tu, tolCut float64, stats *QueryStats) (fl, fu, est float64) {
	fl, fu = e.refine(x, tl, tu, tolCut, 0, "tree/refine", stats)
	return fl, fu, 0.5 * (fl + fu)
}

// EstimateDensity implements DensityBackend over the same traversal with
// only the relative rule armed.
func (e *densityEstimator) EstimateDensity(x []float64, rel float64, stats *QueryStats) (fl, fu, est float64) {
	fl, fu = e.refine(x, math.Inf(-1), math.Inf(1), math.Inf(-1), rel, "tree/estimate", stats)
	return fl, fu, 0.5 * (fl + fu)
}

// Name returns BackendTree.
func (e *densityEstimator) Name() string { return BackendTree }

// Certified reports true: tree bounds are deterministic certificates.
func (e *densityEstimator) Certified() bool { return true }

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

// backendError builds the rejection for an unknown Config.Backend.
func backendError(name string) error {
	return fmt.Errorf("core: unknown backend %q (valid: %s, %s, %s)", name, BackendAuto, BackendTree, BackendSampling)
}
