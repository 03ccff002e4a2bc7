// Package stats provides the statistical primitives tKDC is built on:
// sample means and variances, order statistics and quantiles of sorted
// samples, binomial/normal confidence intervals for sample quantiles
// (Section 3.5 of the paper), the inverse normal CDF, column standard
// deviations for Scott's rule, and classification scoring.
//
// Everything in this package operates on plain float64 slices and is free
// of external dependencies.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by functions that require at least one observation.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n, matching
// the convention used by Scott's rule in the paper), or 0 for fewer than
// one observation.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// ColumnStdDevsFlat returns the per-column population standard
// deviations of flat row-major storage: data holds rows of width dim
// back to back, and the result has length dim. An empty dataset yields
// nil.
func ColumnStdDevsFlat(data []float64, dim int) []float64 {
	if len(data) == 0 || dim <= 0 {
		return nil
	}
	n := len(data) / dim
	means := make([]float64, dim)
	for off := 0; off < len(data); off += dim {
		for i := 0; i < dim; i++ {
			means[i] += data[off+i]
		}
	}
	inv := 1 / float64(n)
	for i := range means {
		means[i] *= inv
	}
	vars := make([]float64, dim)
	for off := 0; off < len(data); off += dim {
		for i := 0; i < dim; i++ {
			dv := data[off+i] - means[i]
			vars[i] += dv * dv
		}
	}
	out := make([]float64, dim)
	for i := range vars {
		out[i] = math.Sqrt(vars[i] * inv)
	}
	return out
}

// SortedOrderStatistic returns the k-th smallest element (1-based) of an
// already-sorted slice. k is clamped into [1, len(xs)].
func SortedOrderStatistic(sorted []float64, k int) (float64, error) {
	if len(sorted) == 0 {
		return 0, ErrEmpty
	}
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[k-1], nil
}

// SortedQuantile returns the p-quantile of an already-sorted slice
// using the paper's convention: the (n·p)-th smallest element (Section
// 2.3, Equation 1). p is clamped into [0, 1].
func SortedQuantile(sorted []float64, p float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, ErrEmpty
	}
	p = math.Max(0, math.Min(1, p))
	k := int(math.Round(p * float64(len(sorted))))
	return SortedOrderStatistic(sorted, k)
}

// QuantileCIIndices returns 1-based order-statistic indices (l, u) such
// that, for a random sample of size s from a population, the l-th and u-th
// smallest sample values bound the population p-quantile with probability
// at least 1−δ. This is Equation 11 of the paper:
//
//	l = s·p − z·sqrt(s·p·(1−p)),  u = s·p + z·sqrt(s·p·(1−p))
//
// Because the interval is two-sided, z must be z_{1−δ/2} for total
// coverage 1−δ; this matches the paper's own worked example (s = 20000,
// δ = 0.01, p = 0.01 uses z = 2.576 = z_{0.995} and brackets the 164th
// and 236th order statistics). The indices are clamped into [1, s].
// s must be positive and p, δ must lie in (0, 1).
func QuantileCIIndices(s int, p, delta float64) (l, u int, err error) {
	if s <= 0 {
		return 0, 0, ErrEmpty
	}
	if p <= 0 || p >= 1 {
		return 0, 0, errors.New("stats: quantile p must be in (0,1)")
	}
	if delta <= 0 || delta >= 1 {
		return 0, 0, errors.New("stats: failure probability delta must be in (0,1)")
	}
	z := InvNormCDF(1 - delta/2)
	sp := float64(s) * p
	half := z * math.Sqrt(sp*(1-p))
	l = int(math.Floor(sp - half))
	u = int(math.Ceil(sp + half))
	if l < 1 {
		l = 1
	}
	if u > s {
		u = s
	}
	if u < l {
		u = l
	}
	return l, u, nil
}

// NormCDF returns the standard normal cumulative distribution function at x.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// InvNormCDF returns the p-th quantile of the standard normal distribution
// (the value z with NormCDF(z) = p), using Peter Acklam's rational
// approximation refined by one Halley step, accurate to well below 1e-9
// across (0, 1). InvNormCDF(0) is -Inf and InvNormCDF(1) is +Inf; values
// outside [0, 1] yield NaN.
func InvNormCDF(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}

	// Coefficients for Acklam's approximation.
	var (
		a = [6]float64{
			-3.969683028665376e+01, 2.209460984245205e+02,
			-2.759285104469687e+02, 1.383577518672690e+02,
			-3.066479806614716e+01, 2.506628277459239e+00,
		}
		b = [5]float64{
			-5.447609879822406e+01, 1.615858368580409e+02,
			-1.556989798598866e+02, 6.680131188771972e+01,
			-1.328068155288572e+01,
		}
		c = [6]float64{
			-7.784894002430293e-03, -3.223964580411365e-01,
			-2.400758277161838e+00, -2.549732539343734e+00,
			4.374664141464968e+00, 2.938163982698783e+00,
		}
		d = [4]float64{
			7.784695709041462e-03, 3.224671290700398e-01,
			2.445134137142996e+00, 3.754408661907416e+00,
		}
	)
	const plow, phigh = 0.02425, 1 - 0.02425

	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One Halley refinement step.
	e := NormCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}
