// Package points provides the flat point-storage layer shared by every
// stage of the tKDC stack: a contiguous row-major []float64 buffer with a
// fixed row width. The hot loops of the system — per-point kernel
// evaluations during leaf expansion and per-node bound evaluations
// (Algorithm 2) — sweep rows sequentially, so storing the dataset as one
// contiguous allocation instead of a slice of per-row allocations removes
// a pointer chase per point and lets the hardware prefetcher do its job.
//
// A Store is immutable by convention once handed to an index or
// classifier; constructors copy their input, so callers remain free to
// reuse or mutate the source data afterwards.
package points

import (
	"errors"
	"fmt"
	"math"
)

// Store is a flat, contiguous, row-major point set: row i occupies
// Data[i*Dim : (i+1)*Dim]. The zero value is an empty store; use the
// constructors to build populated ones.
type Store struct {
	// Dim is the row width (point dimensionality).
	Dim int
	// Data is the contiguous row-major buffer, len == Len()*Dim.
	Data []float64
}

// New allocates a zeroed store of n rows of width dim.
func New(n, dim int) *Store {
	if n < 0 || dim <= 0 {
		panic(fmt.Sprintf("points: invalid store shape %dx%d", n, dim))
	}
	return &Store{Dim: dim, Data: make([]float64, n*dim)}
}

// FromRows copies a slice-of-rows dataset into flat storage. All rows
// must share the same positive length.
func FromRows(rows [][]float64) (*Store, error) {
	if len(rows) == 0 {
		return nil, errors.New("points: no rows")
	}
	dim := len(rows[0])
	if dim == 0 {
		return nil, errors.New("points: zero-dimensional rows")
	}
	s := New(len(rows), dim)
	for i, row := range rows {
		if len(row) != dim {
			return nil, fmt.Errorf("points: row %d has dimension %d, want %d", i, len(row), dim)
		}
		copy(s.Data[i*dim:(i+1)*dim], row)
	}
	return s, nil
}

// FromFlat copies a pre-flattened row-major buffer into a new store.
// len(flat) must be a positive multiple of dim.
func FromFlat(flat []float64, dim int) (*Store, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("points: dimension %d must be positive", dim)
	}
	if len(flat) == 0 {
		return nil, errors.New("points: no data")
	}
	if len(flat)%dim != 0 {
		return nil, fmt.Errorf("points: buffer length %d is not a multiple of dimension %d", len(flat), dim)
	}
	return &Store{Dim: dim, Data: append([]float64(nil), flat...)}, nil
}

// Len returns the number of rows.
func (s *Store) Len() int {
	if s == nil || s.Dim == 0 {
		return 0
	}
	return len(s.Data) / s.Dim
}

// Row returns a view (not a copy) of row i.
func (s *Store) Row(i int) []float64 {
	return s.Data[i*s.Dim : (i+1)*s.Dim : (i+1)*s.Dim]
}

// Slab returns the contiguous flat view of rows [lo, hi) — the unit of
// work for batch kernel evaluation over a k-d tree leaf.
func (s *Store) Slab(lo, hi int) []float64 {
	return s.Data[lo*s.Dim : hi*s.Dim]
}

// At returns coordinate j of row i.
func (s *Store) At(i, j int) float64 { return s.Data[i*s.Dim+j] }

// Swap exchanges rows i and j in place.
func (s *Store) Swap(i, j int) {
	if i == j {
		return
	}
	a := s.Row(i)
	b := s.Row(j)
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// Clone returns a deep copy.
func (s *Store) Clone() *Store {
	return &Store{Dim: s.Dim, Data: append([]float64(nil), s.Data...)}
}

// Rows materializes per-row views (slice headers only, no data copy) for
// interoperating with row-oriented code outside the hot paths.
func (s *Store) Rows() [][]float64 {
	out := make([][]float64, s.Len())
	for i := range out {
		out[i] = s.Row(i)
	}
	return out
}

// CheckFinite scans for NaN or infinite coordinates, returning an error
// locating the first offender.
func (s *Store) CheckFinite() error {
	for i, v := range s.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("points: row %d coordinate %d is %v", i/s.Dim, i%s.Dim, v)
		}
	}
	return nil
}
