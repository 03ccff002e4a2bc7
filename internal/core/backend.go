package core

import (
	"fmt"
	"math"

	"tkdc/internal/estimator"
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
// keeps the tree traversal. Above it the tree's distance bounds
// degenerate toward a linear scan (BENCH_core.json: ~5 nodes/op at d=1
// versus ~154 at d=8, worse beyond) and sampling wins.
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

// newQueryBackend constructs the configured density backend over a built
// index. Every query path in the package — serving, the training
// refinement pass, the threshold bootstrap's mini-KDEs, the drift probe —
// builds backends through here, so one Config selects the engine
// everywhere.
func newQueryBackend(tree *kdtree.Tree, kern kernel.Kernel, cfg Config) DensityBackend {
	switch resolveBackend(cfg.Backend, tree.Dim) {
	case BackendSampling:
		return &samplingBackend{s: estimator.New(tree, kern, estimator.Options{
			Seed:             cfg.Seed,
			Delta:            cfg.Delta,
			DisableThreshold: cfg.DisableThresholdRule,
			DisableTolerance: cfg.DisableToleranceRule,
		})}
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

// --- sampling backend -------------------------------------------------

// samplingBackend adapts estimator.Sampler to the DensityBackend
// contract, translating its work counters into QueryStats. The package
// split keeps internal/estimator free of core types (it depends only on
// the kdtree arena and the kernel), so further backends can follow the
// same shape.
type samplingBackend struct {
	s *estimator.Sampler
}

func (b *samplingBackend) BoundDensity(x []float64, tl, tu, tolCut float64, stats *QueryStats) (fl, fu, est float64) {
	w := estimator.Work{Trace: stats.Trace}
	fl, fu, est = b.s.BoundDensity(x, tl, tu, tolCut, &w)
	addWork(stats, w)
	return fl, fu, est
}

func (b *samplingBackend) EstimateDensity(x []float64, rel float64, stats *QueryStats) (fl, fu, est float64) {
	w := estimator.Work{Trace: stats.Trace}
	fl, fu, est = b.s.EstimateDensity(x, rel, &w)
	addWork(stats, w)
	return fl, fu, est
}

// Name returns BackendSampling.
func (b *samplingBackend) Name() string { return BackendSampling }

// Certified reports false: the bounds hold with probability ≥ 1−δ.
func (b *samplingBackend) Certified() bool { return false }

// Recycle is a no-op: the sampler's scratch (near-phase heap and
// far-range table) is bounded by its node budget.
func (b *samplingBackend) Recycle() {}

func addWork(stats *QueryStats, w estimator.Work) {
	stats.PointKernels += w.PointKernels
	stats.BoundKernels += w.BoundKernels
	stats.NodesVisited += w.NodesVisited
	stats.SamplingRounds += w.FarRounds
	stats.SampledPoints += w.FarSamples
}

// backendError builds the rejection for an unknown Config.Backend.
func backendError(name string) error {
	return fmt.Errorf("core: unknown backend %q (valid: %s, %s, %s)", name, BackendAuto, BackendTree, BackendSampling)
}
