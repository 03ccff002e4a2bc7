package baseline

import (
	"fmt"
	"math"

	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
)

// RKDE is the radial KDE baseline: a range query on the k-d tree collects
// every training point within a cutoff radius of the query (measured in
// bandwidth-scaled space), and only those contributions are summed
// (Section 4.1, Figure 13). Contributions of excluded points are dropped,
// so the estimate is a lower bound on the true density with error at most
// K(radius) in scaled space.
type RKDE struct {
	tree     *kdtree.Tree
	kern     *kernel.Gaussian
	invH2    []float64
	sqRadius float64
	kernels  int64
}

// NewRKDE builds a radial estimator with the given cutoff radius,
// expressed in bandwidth multiples (the x-axis of Figure 13). radius must
// be positive.
func NewRKDE(data *points.Store, kern *kernel.Gaussian, radius float64) (*RKDE, error) {
	if math.IsNaN(radius) || radius <= 0 {
		return nil, fmt.Errorf("baseline: rkde radius = %v must be positive", radius)
	}
	tree, err := kdtree.Build(data, kdtree.Options{})
	if err != nil {
		return nil, err
	}
	return &RKDE{
		tree:     tree,
		kern:     kern,
		invH2:    kern.InvBandwidthsSq(),
		sqRadius: radius * radius,
	}, nil
}

// RadiusForError returns the smallest scaled cutoff radius at which the
// density error from excluded points is guaranteed to be at most errAbs:
// excluded points contribute at most K(r) each, at most K(r) in total
// density, so K(r) ≤ errAbs suffices. The paper sets errAbs = ε·t
// ("the smallest possible radius with guaranteed error ε = 0.01t").
func RadiusForError(kern *kernel.Gaussian, errAbs float64) (float64, error) {
	if errAbs <= 0 {
		return 0, fmt.Errorf("baseline: rkde error target %v must be positive", errAbs)
	}
	k0 := kern.AtZero()
	if errAbs >= k0 {
		// Even fully excluded points meet the target; any tiny radius works.
		return 1e-9, nil
	}
	// K(s) = K(0)·exp(−s/2) with s the scaled squared distance.
	s := -2 * math.Log(errAbs/k0)
	return math.Sqrt(s), nil
}

// Name returns "rkde".
func (r *RKDE) Name() string { return "rkde" }

// N returns the training set size.
func (r *RKDE) N() int { return r.tree.Size }

// Kernels returns total kernel evaluations.
func (r *RKDE) Kernels() int64 { return r.kernels }

// Radius returns the cutoff radius in bandwidth multiples.
func (r *RKDE) Radius() float64 { return math.Sqrt(r.sqRadius) }

// Density sums kernel contributions of points within the cutoff radius.
func (r *RKDE) Density(x []float64) float64 {
	sum := 0.0
	count := int64(0)
	r.tree.ForEachInRange(x, r.invH2, r.sqRadius, func(p []float64) {
		sum += r.kern.FromScaledSqDist(kernel.ScaledSqDist(x, p, r.invH2))
		count++
	})
	r.kernels += count
	return sum / float64(r.tree.Size)
}
