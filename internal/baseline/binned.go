package baseline

import (
	"fmt"
	"math"

	"tkdc/internal/kernel"
	"tkdc/internal/points"
)

// defaultBinsPerDim mirrors the R "ks" package's default grid sizes for
// d = 1..4. Total grid size grows as binsᵈ, which is why binning-based
// KDE stops scaling past a few dimensions (Section 4.2: "its binning
// efficiency falls off exponentially with dimension").
var defaultBinsPerDim = [4]int{401, 151, 51, 21}

// MaxBinnedDim is the largest dimensionality the binned estimator
// supports, matching the ks package's d ≤ 4 limit.
const MaxBinnedDim = 4

// Binned is the binning-approximation baseline (the "ks" algorithm of
// Table 2): training points are spread onto a regular grid with linear
// binning; a density query sums kernel contributions from grid nodes
// within a truncation window. This computes the same estimate the ks
// package's FFT convolution would (the FFT only accelerates the same
// binned sum) and carries no accuracy guarantee — error grows with bin
// width, i.e. with dimension.
type Binned struct {
	kern    *kernel.Gaussian
	invH2   []float64
	n       int
	dim     int
	bins    []int     // nodes per dimension
	origin  []float64 // grid origin per dimension
	width   []float64 // bin width per dimension
	strides []int
	weights []float64
	trunc   float64 // truncation radius in bandwidth multiples
	kernels int64
}

// NewBinned builds a binned estimator with ks-style default grid sizes.
func NewBinned(data *points.Store, kern *kernel.Gaussian) (*Binned, error) {
	d := kern.Dim()
	if d > MaxBinnedDim {
		return nil, fmt.Errorf("baseline: binned estimator supports at most %d dimensions, got %d", MaxBinnedDim, d)
	}
	return NewBinnedWithBins(data, kern, defaultBinsPerDim[d-1])
}

// NewBinnedWithBins builds a binned estimator with binsPerDim grid nodes
// along every dimension.
func NewBinnedWithBins(data *points.Store, kern *kernel.Gaussian, binsPerDim int) (*Binned, error) {
	if data.Len() == 0 {
		return nil, fmt.Errorf("baseline: binned estimator needs data")
	}
	d := kern.Dim()
	if d > MaxBinnedDim {
		return nil, fmt.Errorf("baseline: binned estimator supports at most %d dimensions, got %d", MaxBinnedDim, d)
	}
	if binsPerDim < 2 {
		return nil, fmt.Errorf("baseline: binsPerDim = %d must be at least 2", binsPerDim)
	}
	if data.Dim != d {
		return nil, fmt.Errorf("baseline: data dimension %d, want %d", data.Dim, d)
	}

	b := &Binned{
		kern:   kern,
		invH2:  kern.InvBandwidthsSq(),
		n:      data.Len(),
		dim:    d,
		bins:   make([]int, d),
		origin: make([]float64, d),
		width:  make([]float64, d),
		trunc:  4,
	}
	h := kern.Bandwidths()

	// Grid range: data extent padded by 3 bandwidths per side.
	lo := make([]float64, d)
	hi := make([]float64, d)
	copy(lo, data.Row(0))
	copy(hi, data.Row(0))
	flat := data.Data
	for off := 0; off < len(flat); off += d {
		for j := 0; j < d; j++ {
			v := flat[off+j]
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	total := 1
	for j := 0; j < d; j++ {
		b.bins[j] = binsPerDim
		b.origin[j] = lo[j] - 3*h[j]
		span := (hi[j] + 3*h[j]) - b.origin[j]
		if span <= 0 {
			span = 6 * h[j]
		}
		b.width[j] = span / float64(binsPerDim-1)
		total *= binsPerDim
	}
	b.strides = make([]int, d)
	stride := 1
	for j := d - 1; j >= 0; j-- {
		b.strides[j] = stride
		stride *= b.bins[j]
	}
	b.weights = make([]float64, total)

	// Linear binning: each point distributes unit mass to the 2ᵈ grid
	// nodes of its enclosing cell, proportional to proximity.
	gpos := make([]float64, d)
	gidx := make([]int, d)
	for base := 0; base < len(flat); base += d {
		for j := 0; j < d; j++ {
			v := flat[base+j]
			g := (v - b.origin[j]) / b.width[j]
			i0 := int(math.Floor(g))
			if i0 < 0 {
				i0, g = 0, 0
			}
			if i0 >= b.bins[j]-1 {
				i0 = b.bins[j] - 2
				g = float64(b.bins[j] - 1)
			}
			gidx[j] = i0
			gpos[j] = g - float64(i0) // fraction toward the upper node
		}
		for corner := 0; corner < 1<<d; corner++ {
			w := 1.0
			off := 0
			for j := 0; j < d; j++ {
				if corner&(1<<j) != 0 {
					w *= gpos[j]
					off += (gidx[j] + 1) * b.strides[j]
				} else {
					w *= 1 - gpos[j]
					off += gidx[j] * b.strides[j]
				}
			}
			b.weights[off] += w
		}
	}
	return b, nil
}

// Name returns "binned".
func (b *Binned) Name() string { return "binned" }

// N returns the training set size.
func (b *Binned) N() int { return b.n }

// Kernels returns total kernel evaluations (one per grid node visited).
func (b *Binned) Kernels() int64 { return b.kernels }

// Density sums weighted kernel contributions from grid nodes within the
// truncation window around x.
func (b *Binned) Density(x []float64) float64 {
	h := b.kern.Bandwidths()
	loIdx := make([]int, b.dim)
	hiIdx := make([]int, b.dim)
	for j := 0; j < b.dim; j++ {
		lo := int(math.Ceil((x[j] - b.trunc*h[j] - b.origin[j]) / b.width[j]))
		hi := int(math.Floor((x[j] + b.trunc*h[j] - b.origin[j]) / b.width[j]))
		if lo < 0 {
			lo = 0
		}
		if hi > b.bins[j]-1 {
			hi = b.bins[j] - 1
		}
		if lo > hi {
			return 0
		}
		loIdx[j], hiIdx[j] = lo, hi
	}

	node := make([]float64, b.dim)
	idx := make([]int, b.dim)
	copy(idx, loIdx)
	sum := 0.0
	for {
		off := 0
		for j := 0; j < b.dim; j++ {
			off += idx[j] * b.strides[j]
			node[j] = b.origin[j] + float64(idx[j])*b.width[j]
		}
		if w := b.weights[off]; w != 0 {
			sum += w * b.kern.FromScaledSqDist(kernel.ScaledSqDist(x, node, b.invH2))
		}
		b.kernels++

		// Advance the multi-index.
		j := b.dim - 1
		for ; j >= 0; j-- {
			idx[j]++
			if idx[j] <= hiIdx[j] {
				break
			}
			idx[j] = loIdx[j]
		}
		if j < 0 {
			break
		}
	}
	return sum / float64(b.n)
}

// GridNodes returns the total number of grid nodes (reporting/debugging).
func (b *Binned) GridNodes() int { return len(b.weights) }
