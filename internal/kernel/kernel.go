// Package kernel implements the kernel functions and bandwidth selection
// rules used by tKDC (Section 2.4 of the paper).
//
// The paper adopts product kernels with a diagonal bandwidth matrix
// H = diag(h₁², …, h_d²). For the Gaussian family this makes the kernel a
// function of the single scalar
//
//	s = Σ_i (x_i − y_i)² / h_i²
//
// (the squared Mahalanobis distance under H), which is the quantity the
// spatial index computes bounds on. Every Kernel in this package is
// radial in that scaled space and monotonically non-increasing in s — the
// property the k-d tree's min/max distance bounds rely on.
package kernel

import (
	"errors"
	"fmt"
	"math"
)

// Kernel is a probability-density kernel that is radial and non-increasing
// in the bandwidth-scaled squared distance s = Σ_i diff_i²/h_i².
type Kernel interface {
	// Dim returns the data dimensionality d.
	Dim() int
	// Bandwidths returns the per-dimension bandwidths h_i (not copied;
	// callers must not modify).
	Bandwidths() []float64
	// InvBandwidthsSq returns 1/h_i² per dimension (not copied).
	InvBandwidthsSq() []float64
	// FromScaledSqDist returns the kernel density at scaled squared
	// distance s ≥ 0.
	FromScaledSqDist(s float64) float64
	// AtZero returns the kernel's maximum value K(0) = FromScaledSqDist(0).
	AtZero() float64
	// SupportSqRadius returns the scaled squared distance beyond which the
	// kernel is exactly zero, or +Inf for infinite-support kernels.
	SupportSqRadius() float64
	// Name identifies the kernel family ("gaussian", "epanechnikov").
	Name() string
}

// ScaledSqDist returns Σ_i (a_i−b_i)²·invH2_i, the squared distance in
// bandwidth-scaled space. The three slices must have equal length.
func ScaledSqDist(a, b, invH2 []float64) float64 {
	s := 0.0
	for i, ai := range a {
		d := ai - b[i]
		s += d * d * invH2[i]
	}
	return s
}

// At evaluates a kernel at the difference between two points.
func At(k Kernel, a, b []float64) float64 {
	return k.FromScaledSqDist(ScaledSqDist(a, b, k.InvBandwidthsSq()))
}

// Sum evaluates the kernel at x against every row of a flat row-major
// buffer (row width len(x)) and returns the sum of kernel values — the
// batch form of leaf expansion. Concrete kernels get a direct loop with
// no per-point interface dispatch; other implementations fall back to a
// generic sweep. The summation order matches evaluating rows first to
// last, so results are bit-identical to the scalar loop.
func Sum(k Kernel, x, rows []float64) float64 {
	switch kk := k.(type) {
	case *Gaussian:
		return kk.SumFlat(x, rows)
	case *Epanechnikov:
		return kk.SumFlat(x, rows)
	}
	d := len(x)
	invH2 := k.InvBandwidthsSq()
	// Hoist the support radius out of the loop: beyond it the kernel is
	// exactly zero, so the interface call can be skipped entirely — the
	// same short-circuit the concrete SumFlat fast paths apply inline.
	support := k.SupportSqRadius()
	sum := 0.0
	for off := 0; off < len(rows); off += d {
		s := 0.0
		for j, xj := range x {
			diff := xj - rows[off+j]
			s += diff * diff * invH2[j]
		}
		if s >= support {
			continue
		}
		sum += k.FromScaledSqDist(s)
	}
	return sum
}

func validateBandwidths(h []float64) error {
	if len(h) == 0 {
		return errors.New("kernel: empty bandwidth vector")
	}
	for i, hi := range h {
		if math.IsNaN(hi) || math.IsInf(hi, 0) || hi <= 0 {
			return fmt.Errorf("kernel: bandwidth h[%d] = %v must be a positive finite number", i, hi)
		}
		// Every distance is scaled by 1/h²; an infinite scale turns a
		// zero gap into 0·Inf = NaN in the box bounds.
		if math.IsInf(1/(hi*hi), 0) {
			return fmt.Errorf("kernel: bandwidth h[%d] = %v is too small: 1/h² overflows", i, hi)
		}
	}
	return nil
}

// Gaussian is the Gaussian product kernel of Equation 2 with diagonal
// bandwidth:
//
//	K_H(x) = (2π)^{−d/2} |H|^{−1/2} · exp(−½ Σ x_i²/h_i²)
type Gaussian struct {
	h       []float64
	invH2   []float64
	norm    float64
	logNorm float64
}

// NewGaussian builds a Gaussian product kernel from per-dimension
// bandwidths. All bandwidths must be positive and finite.
//
// In very high dimensions the normalization constant (2π)^{−d/2}·Π 1/h_i
// can fall outside float64's range entirely (the mnist-at-256-dimensions
// underflow the paper works around with b = 3). Density *classification*
// is invariant to a common positive scale — both the densities and the
// quantile threshold derived from them scale together — so when the
// constant is unrepresentable the kernel silently switches to the
// unnormalized form K(s) = exp(−s/2). LogNorm always reports the true
// log constant and NormalizedValues reports whether values returned by
// FromScaledSqDist are true probability densities.
func NewGaussian(h []float64) (*Gaussian, error) {
	if err := validateBandwidths(h); err != nil {
		return nil, err
	}
	g := &Gaussian{
		h:     append([]float64(nil), h...),
		invH2: make([]float64, len(h)),
	}
	// |H|^{1/2} = Π h_i for diagonal H. Accumulate the log to avoid
	// overflow/underflow in high dimensions, where Π (√(2π)·h_i) spans
	// hundreds of orders of magnitude.
	logNorm := 0.0
	for i, hi := range h {
		g.invH2[i] = 1 / (hi * hi)
		logNorm -= math.Log(math.Sqrt(2*math.Pi) * hi)
	}
	g.logNorm = logNorm
	g.norm = math.Exp(logNorm)
	if g.norm == 0 || math.IsInf(g.norm, 0) {
		g.norm = 1
	}
	return g, nil
}

// LogNorm returns the logarithm of the true normalization constant,
// even when the constant itself is not representable as a float64.
func (g *Gaussian) LogNorm() float64 { return g.logNorm }

// NormalizedValues reports whether FromScaledSqDist returns true
// probability densities (false when the normalization constant is
// unrepresentable and the kernel operates in scale-invariant mode).
func (g *Gaussian) NormalizedValues() bool { return g.norm != 1 || g.logNorm == 0 }

// Dim returns the data dimensionality.
func (g *Gaussian) Dim() int { return len(g.h) }

// Bandwidths returns the per-dimension bandwidths.
func (g *Gaussian) Bandwidths() []float64 { return g.h }

// InvBandwidthsSq returns 1/h_i² per dimension.
func (g *Gaussian) InvBandwidthsSq() []float64 { return g.invH2 }

// gaussianCutoffSq truncates the Gaussian at scaled squared distance
// 1488: exp(−1488/2) = exp(−744) is at the float64 subnormal boundary
// (≈ 2.5e−324), so defining K(s ≥ 1488) = 0 changes any density by at
// most one subnormal per point while letting traversals prune entire
// far subtrees without calling exp. The truncated kernel remains
// monotone non-increasing, which is all the bound machinery requires.
const gaussianCutoffSq = 1488

// FromScaledSqDist returns norm·exp(−s/2), truncated to exactly zero at
// the subnormal boundary (see gaussianCutoffSq).
func (g *Gaussian) FromScaledSqDist(s float64) float64 {
	if s >= gaussianCutoffSq {
		return 0
	}
	// exp(−0) = 1 exactly, so the peak value needs no exp call. Box
	// bounds hit s = 0 on every node containing the query point, which
	// makes this the hottest input of the whole traversal.
	if s == 0 {
		return g.norm
	}
	return g.expTail(s)
}

// expTail is the general-case body of FromScaledSqDist, kept out of line
// so the truncation and peak fast paths above stay within the inlining
// budget: traversals then pay a call only when exp is genuinely needed.
//
//go:noinline
func (g *Gaussian) expTail(s float64) float64 {
	return g.norm * math.Exp(-0.5*s)
}

// SumFlat sums the kernel over every row of a flat row-major buffer with
// row width len(x), sweeping the buffer contiguously.
func (g *Gaussian) SumFlat(x, rows []float64) float64 {
	d := len(x)
	inv := g.invH2[:d]
	sum := 0.0
	// Unrolled low-dimensional sweeps: same per-row expression in the
	// same row order as the generic loop, so the result is bit-identical
	// — only the loop bookkeeping differs.
	switch d {
	case 1:
		x0, inv0 := x[0], inv[0]
		for _, r := range rows {
			diff := x0 - r
			if s := diff * diff * inv0; s < gaussianCutoffSq {
				sum += g.norm * math.Exp(-0.5*s)
			}
		}
		return sum
	case 2:
		x0, x1 := x[0], x[1]
		inv0, inv1 := inv[0], inv[1]
		for off := 0; off+1 < len(rows); off += 2 {
			d0 := x0 - rows[off]
			d1 := x1 - rows[off+1]
			if s := d0*d0*inv0 + d1*d1*inv1; s < gaussianCutoffSq {
				sum += g.norm * math.Exp(-0.5*s)
			}
		}
		return sum
	}
	for off := 0; off < len(rows); off += d {
		row := rows[off : off+d : off+d]
		s := 0.0
		for j, xj := range x {
			diff := xj - row[j]
			s += diff * diff * inv[j]
		}
		if s >= gaussianCutoffSq {
			continue
		}
		sum += g.norm * math.Exp(-0.5*s)
	}
	return sum
}

// AtZero returns the kernel's peak value.
func (g *Gaussian) AtZero() float64 { return g.norm }

// SupportSqRadius returns the scaled squared distance beyond which the
// (truncated) Gaussian is exactly zero.
func (g *Gaussian) SupportSqRadius() float64 { return gaussianCutoffSq }

// Name returns "gaussian".
func (g *Gaussian) Name() string { return "gaussian" }

// Epanechnikov is the spherical (radial) Epanechnikov kernel in the
// bandwidth-scaled space:
//
//	K_H(x) = c_d / (Π h_i) · (1 − s)  for s = Σ x_i²/h_i² < 1, else 0
//
// where c_d = (d+2) / (2·V_d) and V_d is the volume of the d-dimensional
// unit ball, so that the kernel integrates to one. It is offered as a
// finite-support alternative to the Gaussian (an extension beyond the
// paper's default); its bounded support makes the threshold rule able to
// prune entire subtrees to an exact zero contribution.
type Epanechnikov struct {
	h     []float64
	invH2 []float64
	norm  float64
}

// NewEpanechnikov builds a spherical Epanechnikov kernel from
// per-dimension bandwidths.
func NewEpanechnikov(h []float64) (*Epanechnikov, error) {
	if err := validateBandwidths(h); err != nil {
		return nil, err
	}
	e := &Epanechnikov{
		h:     append([]float64(nil), h...),
		invH2: make([]float64, len(h)),
	}
	d := float64(len(h))
	// log V_d = (d/2)·log π − lgamma(d/2 + 1).
	lg, _ := math.Lgamma(d/2 + 1)
	logVd := d/2*math.Log(math.Pi) - lg
	logNorm := math.Log(d+2) - math.Log(2) - logVd
	for i, hi := range h {
		e.invH2[i] = 1 / (hi * hi)
		logNorm -= math.Log(hi)
	}
	e.norm = math.Exp(logNorm)
	return e, nil
}

// Dim returns the data dimensionality.
func (e *Epanechnikov) Dim() int { return len(e.h) }

// Bandwidths returns the per-dimension bandwidths.
func (e *Epanechnikov) Bandwidths() []float64 { return e.h }

// InvBandwidthsSq returns 1/h_i² per dimension.
func (e *Epanechnikov) InvBandwidthsSq() []float64 { return e.invH2 }

// FromScaledSqDist returns norm·(1−s) for s < 1 and 0 otherwise.
func (e *Epanechnikov) FromScaledSqDist(s float64) float64 {
	if s >= 1 {
		return 0
	}
	return e.norm * (1 - s)
}

// SumFlat sums the kernel over every row of a flat row-major buffer with
// row width len(x), sweeping the buffer contiguously.
func (e *Epanechnikov) SumFlat(x, rows []float64) float64 {
	d := len(x)
	inv := e.invH2[:d]
	sum := 0.0
	for off := 0; off < len(rows); off += d {
		row := rows[off : off+d : off+d]
		s := 0.0
		for j, xj := range x {
			diff := xj - row[j]
			s += diff * diff * inv[j]
		}
		if s >= 1 {
			continue
		}
		sum += e.norm * (1 - s)
	}
	return sum
}

// AtZero returns the kernel's peak value.
func (e *Epanechnikov) AtZero() float64 { return e.norm }

// SupportSqRadius returns 1: the kernel vanishes at scaled distance 1.
func (e *Epanechnikov) SupportSqRadius() float64 { return 1 }

// Name returns "epanechnikov".
func (e *Epanechnikov) Name() string { return "epanechnikov" }
