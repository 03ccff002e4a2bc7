// Package kernel implements the Gaussian product kernel and the
// bandwidth selection rule used by tKDC (Section 2.4 of the paper).
//
// The paper adopts product kernels with a diagonal bandwidth matrix
// H = diag(h₁², …, h_d²). For the Gaussian this makes the kernel a
// function of the single scalar
//
//	s = Σ_i (x_i − y_i)² / h_i²
//
// (the squared Mahalanobis distance under H), which is the quantity the
// spatial index computes bounds on. The kernel is radial in that scaled
// space and monotonically non-increasing in s — the property the k-d
// tree's min/max distance bounds rely on — and it is truncated to an
// exact zero at s = 1488, so traversals prune far subtrees outright.
package kernel

import (
	"errors"
	"fmt"
	"math"
)

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

// At evaluates the kernel at the difference between two points.
func At(g *Gaussian, a, b []float64) float64 {
	return g.FromScaledSqDist(ScaledSqDist(a, b, g.invH2))
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
	h     []float64
	invH2 []float64
	norm  float64
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
// unnormalized form K(s) = exp(−s/2), and FromScaledSqDist no longer
// returns true probability densities.
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
	g.norm = math.Exp(logNorm)
	if g.norm == 0 || math.IsInf(g.norm, 0) {
		g.norm = 1
	}
	return g, nil
}

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

// Sum evaluates the kernel at x against every row of a flat row-major
// buffer (row width len(x)) and returns the sum of kernel values — the
// batch form of leaf expansion. It sweeps the buffer contiguously and
// adds rows first to last, so the result is bit-identical to summing At
// over the rows in order.
func (g *Gaussian) Sum(x, rows []float64) float64 {
	d := len(x)
	inv := g.invH2[:d]
	sum := 0.0
	// Unrolled low-dimensional sweeps: same per-row expression in the
	// same row order as the general loop below, so the result is
	// bit-identical — only the loop bookkeeping differs.
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
