package kdtree

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"tkdc/internal/points"
)

// shapes are the column shapes the bit-pinning and selection tests share:
// Gaussian, four distinct values (the duplicate fallback's input), ±0
// heavy (the one place where equal values differ in bits), and rows
// already sorted or reversed along every axis (a naive pivot's worst
// case). at returns coordinate j of row i out of n.
var shapes = []struct {
	name string
	at   func(rng *rand.Rand, i, n, j int) float64
}{
	{"gauss", func(rng *rand.Rand, _, _, _ int) float64 { return rng.NormFloat64() * 10 }},
	{"dupes", func(rng *rand.Rand, _, _, _ int) float64 { return float64(rng.Intn(4)) }},
	{"zeros", func(rng *rand.Rand, _, _, _ int) float64 {
		switch rng.Intn(5) {
		case 0, 1:
			return 0
		case 2, 3:
			return math.Copysign(0, -1)
		}
		return rng.NormFloat64()
	}},
	{"sorted", func(_ *rand.Rand, i, _, j int) float64 { return float64(i * (j + 1)) }},
	{"reversed", func(_ *rand.Rand, i, n, j int) float64 { return float64((n - 1 - i) * (j + 1)) }},
}

// shapeStore fills an n×d store with shape s, seeded by seed.
func shapeStore(s int, seed int64, n, d int) *points.Store {
	rng := rand.New(rand.NewSource(seed))
	pts := points.New(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			pts.Data[i*d+j] = shapes[s].at(rng, i, n, j)
		}
	}
	return pts
}

// treeDigest folds a tree's node arena, box slab bits and reordered
// point buffer bits into one FNV-1a hash.
func treeDigest(h hash.Hash, tr *Tree) {
	var buf [8]byte
	for _, m := range tr.Meta {
		for _, v := range []int32{m.Lo, m.Hi, m.Left, m.Right} {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			h.Write(buf[:4])
		}
	}
	for _, s := range [][]float64{tr.Boxes, tr.Pts.Data} {
		for _, v := range s {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
}

// TestBuildPinnedBits pins the built tree bit for bit: per input shape
// and split rule, one FNV-1a digest over the NodeMeta arena, the box
// slab's bits and the reordered point buffer's bits of every tree built
// at d ∈ {1, 2, 8, 27}, n ∈ {1, 33, 5000} and leaf sizes 1 and 32. The
// build at Workers 1 and at Workers 4 must each match the pin. The
// constants were recorded when splitValue fully sorted each node's
// column, so they certify that selection picks the same split values.
func TestBuildPinnedBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("constants recorded on amd64, where the generators' math functions round as recorded")
	}
	want := map[string]uint64{
		"gauss/equiwidth":    0xb7294b69cd31827a,
		"gauss/median":       0x13cd8cd0f1e12440,
		"dupes/equiwidth":    0x3458b208e25d1e79,
		"dupes/median":       0xefa4ba601939f78d,
		"zeros/equiwidth":    0x5295ddad5c47b511,
		"zeros/median":       0xc248c8ed62749ebf,
		"sorted/equiwidth":   0x982b5156edff13f7,
		"sorted/median":      0x27d2e3a98b6ef329,
		"reversed/equiwidth": 0x295cab014e19181f,
		"reversed/median":    0x6854e31ffb8bd7c5,
	}
	for s := range shapes {
		for _, split := range []SplitRule{SplitEquiWidth, SplitMedian} {
			name := fmt.Sprintf("%s/%v", shapes[s].name, split)
			for _, workers := range []int{1, 4} {
				h := fnv.New64a()
				for _, d := range []int{1, 2, 8, 27} {
					for _, n := range []int{1, 33, 5000} {
						pts := shapeStore(s, int64(1000*d+n), n, d)
						for _, leaf := range []int{1, 32} {
							tr, err := Build(pts, Options{LeafSize: leaf, Split: split, Workers: workers})
							if err != nil {
								t.Fatalf("%s d=%d n=%d leaf=%d: %v", name, d, n, leaf, err)
							}
							treeDigest(h, tr)
						}
					}
				}
				if pin, ok := want[name]; !ok || h.Sum64() != pin {
					t.Errorf("%s workers=%d: digest %#x, want %#x", name, workers, h.Sum64(), pin)
				}
			}
		}
	}
}

// TestSelectKthMatchesSort is selection's property test: on every shape,
// for sizes 1 to 2000, selectKth(vals, k) returns what sort.Float64s puts
// at index k for every k, leaves vals a permutation of its input with
// nothing larger before k and nothing smaller after it. Values are
// compared with ==, so a zero may come back with either sign, which no
// split comparison can see. introselect with a round budget of 0, 1 and
// 2 runs the slices.Sort fallback, which selectKth's budget of about
// 2·log₂ n rounds reaches only on adversarial inputs.
func TestSelectKthMatchesSort(t *testing.T) {
	sizes := []int{63, 64, 65, 100, 127, 128, 129, 257, 500, 1000, 1999, 2000}
	for n := 1; n <= 40; n++ {
		sizes = append(sizes, n)
	}
	for s := range shapes {
		for _, n := range sizes {
			in := shapeStore(s, int64(n), n, 1).Data
			sorted := slices.Clone(in)
			sort.Float64s(sorted)
			vals := make([]float64, n)
			for k := 0; k < n; k++ {
				for _, rounds := range []int{-1, 0, 1, 2} {
					copy(vals, in)
					var got float64
					if rounds < 0 {
						got = selectKth(vals, k)
					} else {
						got = introselect(vals, k, rounds)
					}
					if got != sorted[k] || vals[k] != got {
						t.Fatalf("%s n=%d k=%d rounds=%d: got %v (vals[k] %v), sorted %v", shapes[s].name, n, k, rounds, got, vals[k], sorted[k])
					}
					for i, v := range vals {
						if (i < k && v > got) || (i > k && v < got) {
							t.Fatalf("%s n=%d k=%d rounds=%d: vals[%d] = %v on the wrong side of %v", shapes[s].name, n, k, rounds, i, v, got)
						}
					}
					if k == n/2 {
						check := slices.Clone(vals)
						sort.Float64s(check)
						if !slices.Equal(check, sorted) {
							t.Fatalf("%s n=%d k=%d rounds=%d: vals is no longer a permutation of its input", shapes[s].name, n, k, rounds)
						}
					}
				}
			}
		}
	}
}

// TestBuildAllocsFlat checks that Build's allocation count does not grow
// with the number of nodes: at 100k rows it may exceed the count at 20k
// rows by the few the extra levels cost (goroutines, scratch growth),
// not by the thousands a buffer per node would add.
func TestBuildAllocsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	small, large := randomPoints(rng, 20_000, 2), randomPoints(rng, 100_000, 2)
	for _, workers := range []int{1, 4} {
		allocs := func(pts *points.Store) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := Build(pts, Options{Workers: workers}); err != nil {
					t.Fatal(err)
				}
			})
		}
		a20, a100 := allocs(small), allocs(large)
		if a100 > a20+40 {
			t.Errorf("workers=%d: Build allocates %.0f times at 100k rows, %.0f at 20k", workers, a100, a20)
		}
		t.Logf("workers=%d: %.0f allocations at 20k rows, %.0f at 100k", workers, a20, a100)
	}
}
