// Package baseline implements the comparison algorithms of Table 2:
//
//   - simple — the naive KDE that sums every kernel contribution;
//   - nocut  — tolerance-only k-d tree traversal (Gray & Moore), the
//     algorithmic equivalent of scikit-learn's tree-based KDE;
//   - rkde   — radial KDE summing only contributions from points within a
//     cutoff radius, found by a range query on the same k-d tree;
//   - binned — linear binning plus truncated kernel convolution, the
//     algorithmic equivalent of the R "ks" package (d ≤ 4 only).
//
// All estimators expose the same Density interface so the benchmark
// harness can drive them interchangeably, and all count their kernel
// evaluations for the factor analyses.
package baseline

import (
	"tkdc/internal/kernel"
	"tkdc/internal/points"
)

// Estimator is a kernel density estimator with a work counter. Estimators
// are not safe for concurrent use (they carry counters and scratch
// state); create one per goroutine.
type Estimator interface {
	// Name identifies the algorithm as in Table 2.
	Name() string
	// Density estimates f(x). The error contract varies per algorithm;
	// see each constructor.
	Density(x []float64) float64
	// Kernels returns total kernel evaluations performed so far.
	Kernels() int64
	// N returns the training set size.
	N() int
}

// Simple is the naive estimator: every density query sums the kernel
// contribution of every training point exactly, in one contiguous sweep
// of the flat buffer.
type Simple struct {
	data    *points.Store
	kern    *kernel.Gaussian
	kernels int64
}

// NewSimple builds the naive estimator over data with the given kernel.
func NewSimple(data *points.Store, kern *kernel.Gaussian) *Simple {
	return &Simple{data: data, kern: kern}
}

// Name returns "simple".
func (s *Simple) Name() string { return "simple" }

// N returns the training set size.
func (s *Simple) N() int { return s.data.Len() }

// Kernels returns total kernel evaluations.
func (s *Simple) Kernels() int64 { return s.kernels }

// Density computes the exact kernel density in Θ(n).
func (s *Simple) Density(x []float64) float64 {
	n := s.data.Len()
	s.kernels += int64(n)
	return s.kern.Sum(x, s.data.Data) / float64(n)
}
