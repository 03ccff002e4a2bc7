// Package grid implements tKDC's hypergrid inlier cache (Section 3.7 of
// the paper): a d-dimensional grid with cell edges equal to the kernel
// bandwidth. A single pass over the dataset counts the points in each
// cell (fanned out across goroutines by NewWorkers, with per-worker
// partial maps merged into the same totals); at query time, a cell
// count G large enough that
//
//	G/n · K_H(d_diag) > threshold
//
// (where d_diag is the cell diagonal, the farthest any same-cell point can
// be) proves the query's density exceeds the threshold before any tree
// traversal. The paper enables the grid only for d ≤ 4; the caller owns
// that policy.
package grid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"tkdc/internal/points"
)

// Grid counts dataset points per hypercube cell. It is immutable after
// NewWorkers and safe for concurrent readers.
type Grid struct {
	widths []float64
	inv    []float64
	counts map[string]int
	n      int
}

// NewWorkers builds a grid over a flat point store with the given
// per-dimension cell widths (the paper sets them equal to the
// bandwidths). All widths must be positive and finite. It fills the
// per-cell counts with the given number of goroutines: each worker
// counts a contiguous row range into a private map and the partials are
// merged afterwards.
// Cell counts are sums, so the merged map is identical to a sequential
// fill at any worker count. Values below 2 fill single-threaded; the
// count is clamped to a small multiple of GOMAXPROCS.
func NewWorkers(pts *points.Store, cellWidths []float64, workers int) (*Grid, error) {
	if pts.Len() == 0 {
		return nil, errors.New("grid: no points")
	}
	d := len(cellWidths)
	if d == 0 {
		return nil, errors.New("grid: empty cell widths")
	}
	if pts.Dim != d {
		return nil, fmt.Errorf("grid: points have dimension %d, want %d", pts.Dim, d)
	}
	for i, w := range cellWidths {
		if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
			return nil, fmt.Errorf("grid: cell width[%d] = %v must be positive and finite", i, w)
		}
	}
	g := &Grid{
		widths: append([]float64(nil), cellWidths...),
		inv:    make([]float64, d),
		counts: make(map[string]int),
		n:      pts.Len(),
	}
	for i, w := range cellWidths {
		g.inv[i] = 1 / w
	}
	n := pts.Len()
	if limit := runtime.GOMAXPROCS(0) * 4; workers > limit {
		workers = limit
	}
	if workers > n {
		workers = n
	}
	if workers < 2 {
		g.countRange(g.counts, pts.Data)
		return g, nil
	}
	partials := make([]map[string]int, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			m := make(map[string]int, (hi-lo)/4)
			g.countRange(m, pts.Data[lo*d:hi*d])
			partials[w] = m
		}(w, lo, hi)
	}
	wg.Wait()
	for _, m := range partials {
		for k, v := range m {
			g.counts[k] += v
		}
	}
	return g, nil
}

// countRange folds the rows of one flat slab into counts.
func (g *Grid) countRange(counts map[string]int, flat []float64) {
	d := len(g.inv)
	buf := make([]byte, 8*d)
	for off := 0; off < len(flat); off += d {
		counts[string(g.key(flat[off:off+d], buf))]++
	}
}

// key encodes the cell coordinates of x into buf and returns it.
func (g *Grid) key(x []float64, buf []byte) []byte {
	for i, xi := range x {
		c := int64(math.Floor(xi * g.inv[i]))
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(c))
	}
	return buf
}

// Count returns the number of dataset points sharing x's grid cell. The
// key is built in a stack buffer, so a lookup allocates nothing up to
// d = 8; the grid is meant for low dimensions (the paper uses d ≤ 4).
func (g *Grid) Count(x []float64) int {
	var stack [64]byte
	buf := stack[:]
	if n := 8 * len(g.inv); n <= len(stack) {
		buf = stack[:n]
	} else {
		buf = make([]byte, n)
	}
	return g.counts[string(g.key(x, buf))]
}

// N returns the number of points the grid was built over.
func (g *Grid) N() int { return g.n }

// Dim returns the grid dimensionality.
func (g *Grid) Dim() int { return len(g.widths) }

// Cells returns the number of occupied cells.
func (g *Grid) Cells() int { return len(g.counts) }

// DiagSqScaled returns the squared length of the cell diagonal measured in
// bandwidth-scaled space: Σ_i widths_i² · invH2_i. With cell widths equal
// to the bandwidths this is exactly d. The result feeds a kernel's
// FromScaledSqDist to get the worst-case same-cell kernel value.
func (g *Grid) DiagSqScaled(invH2 []float64) float64 {
	s := 0.0
	for i, w := range g.widths {
		s += w * w * invH2[i]
	}
	return s
}

// LowerBoundDensity returns a certified lower bound on the kernel density
// at x: the contribution of same-cell points alone, each at worst a full
// cell diagonal away. kernelAtDiag must be K_H evaluated at DiagSqScaled.
func (g *Grid) LowerBoundDensity(x []float64, kernelAtDiag float64) float64 {
	return float64(g.Count(x)) / float64(g.n) * kernelAtDiag
}
