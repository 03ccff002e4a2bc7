package points

import (
	"math"
	"testing"
)

func TestFromRows(t *testing.T) {
	s, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Dim != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", s.Len(), s.Dim)
	}
	if got := s.Row(1); got[0] != 3 || got[1] != 4 {
		t.Fatalf("Row(1) = %v, want [3 4]", got)
	}
	if s.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", s.At(2, 1))
	}
}

func TestFromRowsCopies(t *testing.T) {
	src := [][]float64{{1, 2}, {3, 4}}
	s, err := FromRows(src)
	if err != nil {
		t.Fatal(err)
	}
	src[0][0] = 99
	if s.At(0, 0) != 1 {
		t.Fatal("FromRows must copy, not reference, the input rows")
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Fatal("want error for empty input")
	}
	if _, err := FromRows([][]float64{{}}); err == nil {
		t.Fatal("want error for zero-dimensional rows")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("want error for ragged rows")
	}
}

func TestFromFlat(t *testing.T) {
	src := []float64{1, 2, 3, 4, 5, 6}
	s, err := FromFlat(src, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Dim != 3 {
		t.Fatalf("shape = %dx%d, want 2x3", s.Len(), s.Dim)
	}
	src[0] = 42
	if s.Data[0] != 1 {
		t.Fatal("FromFlat must copy the input buffer")
	}
	if _, err := FromFlat([]float64{1, 2, 3}, 2); err == nil {
		t.Fatal("want error for length not a multiple of dim")
	}
	if _, err := FromFlat(nil, 2); err == nil {
		t.Fatal("want error for empty buffer")
	}
	if _, err := FromFlat([]float64{1}, 0); err == nil {
		t.Fatal("want error for non-positive dim")
	}
}

func TestSlabAndSwap(t *testing.T) {
	s, err := FromRows([][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	slab := s.Slab(1, 3)
	want := []float64{1, 1, 2, 2}
	for i, v := range want {
		if slab[i] != v {
			t.Fatalf("Slab(1,3) = %v, want %v", slab, want)
		}
	}
	s.Swap(0, 3)
	if s.At(0, 0) != 3 || s.At(3, 0) != 0 {
		t.Fatal("Swap did not exchange rows")
	}
	s.Swap(1, 1)
	if s.At(1, 0) != 1 {
		t.Fatal("self-Swap must be a no-op")
	}
}

func TestRowViewCapacity(t *testing.T) {
	s := New(2, 2)
	r := s.Row(0)
	if cap(r) != 2 {
		t.Fatalf("Row view capacity %d leaks into the next row", cap(r))
	}
}

func TestCloneIndependent(t *testing.T) {
	s, _ := FromRows([][]float64{{1, 2}})
	c := s.Clone()
	c.Data[0] = 9
	if s.Data[0] != 1 {
		t.Fatal("Clone shares storage with the original")
	}
}

func TestRowsViews(t *testing.T) {
	s, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	rows := s.Rows()
	if len(rows) != 2 || rows[1][0] != 3 {
		t.Fatalf("Rows() = %v", rows)
	}
	// Views, not copies: writes show through (documented interop behaviour).
	rows[0][0] = 7
	if s.At(0, 0) != 7 {
		t.Fatal("Rows() should return views into the flat buffer")
	}
}

func TestCheckFinite(t *testing.T) {
	ok, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	if err := ok.CheckFinite(); err != nil {
		t.Fatalf("CheckFinite on finite data: %v", err)
	}
	bad, _ := FromRows([][]float64{{1, 2}, {3, math.NaN()}})
	if err := bad.CheckFinite(); err == nil {
		t.Fatal("want error for NaN coordinate")
	}
	inf, _ := FromRows([][]float64{{math.Inf(-1), 2}})
	if err := inf.CheckFinite(); err == nil {
		t.Fatal("want error for infinite coordinate")
	}
}

func TestNilAndEmptyLen(t *testing.T) {
	var s *Store
	if s.Len() != 0 {
		t.Fatal("nil store Len should be 0")
	}
	if (&Store{}).Len() != 0 {
		t.Fatal("zero store Len should be 0")
	}
}
