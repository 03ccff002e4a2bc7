package kdtree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"tkdc/internal/points"
)

// --- Reference implementation -------------------------------------------
//
// refBuild is an independent pointer-based DFS construction implementing
// the pre-arena build algorithm verbatim: recursive node allocation, two
// separately-allocated Min/Max slices per node, the same split rules and
// duplicate fallbacks. The property tests below build both layouts over
// random point sets and demand bit-identical node ranges, boxes, and
// point (leaf) order — certifying the arena refactor as a pure layout
// change.

type refNode struct {
	min, max    []float64
	lo, hi      int
	left, right *refNode
}

type refTree struct {
	pts  *points.Store
	opts Options
}

func refBuild(pts *points.Store, opts Options) (*refTree, *refNode) {
	if opts.LeafSize <= 0 {
		opts.LeafSize = DefaultLeafSize
	}
	t := &refTree{pts: pts.Clone(), opts: opts}
	return t, t.build(0, t.pts.Len(), 0)
}

func (t *refTree) build(lo, hi, depth int) *refNode {
	n := &refNode{lo: lo, hi: hi}
	n.min, n.max = t.boundingBox(lo, hi)
	if hi-lo <= t.opts.LeafSize {
		return n
	}
	d := t.pts.Dim
	dim := -1
	for off := 0; off < d; off++ {
		cand := (depth + off) % d
		if n.max[cand] > n.min[cand] {
			dim = cand
			break
		}
	}
	if dim < 0 {
		return n
	}
	split := t.splitValue(lo, hi, dim)
	mid := t.partition(lo, hi, dim, split)
	if mid == lo || mid == hi {
		sort.Sort(&rowSorter{pts: t.pts, lo: lo, hi: hi, dim: dim})
		mid = lo + (hi-lo)/2
		for mid < hi && t.pts.At(mid, dim) == t.pts.At(mid-1, dim) {
			mid++
		}
		if mid == hi {
			mid = lo + (hi-lo)/2
			for mid > lo && t.pts.At(mid, dim) == t.pts.At(mid-1, dim) {
				mid--
			}
		}
		if mid == lo || mid == hi {
			return n
		}
	}
	n.left = t.build(lo, mid, depth+1)
	n.right = t.build(mid, hi, depth+1)
	return n
}

func (t *refTree) boundingBox(lo, hi int) (bmin, bmax []float64) {
	d := t.pts.Dim
	bmin = make([]float64, d)
	bmax = make([]float64, d)
	copy(bmin, t.pts.Row(lo))
	copy(bmax, t.pts.Row(lo))
	flat := t.pts.Slab(lo+1, hi)
	for off := 0; off < len(flat); off += d {
		for j := 0; j < d; j++ {
			v := flat[off+j]
			if v < bmin[j] {
				bmin[j] = v
			}
			if v > bmax[j] {
				bmax[j] = v
			}
		}
	}
	return bmin, bmax
}

func (t *refTree) splitValue(lo, hi, dim int) float64 {
	vals := make([]float64, hi-lo)
	for i := range vals {
		vals[i] = t.pts.At(lo+i, dim)
	}
	sort.Float64s(vals)
	switch t.opts.Split {
	case SplitMedian:
		return vals[len(vals)/2]
	default:
		p10 := vals[int(0.10*float64(len(vals)-1))]
		p90 := vals[int(0.90*float64(len(vals)-1))]
		return 0.5 * (p10 + p90)
	}
}

func (t *refTree) partition(lo, hi, dim int, split float64) int {
	i, j := lo, hi-1
	for i <= j {
		if t.pts.At(i, dim) < split {
			i++
		} else {
			t.pts.Swap(i, j)
			j--
		}
	}
	return i
}

// compareArenaToRef walks the arena and the reference tree in lockstep,
// asserting identical structure, ranges, and boxes.
func compareArenaToRef(t *testing.T, tr *Tree, ref *refNode, id int32) {
	t.Helper()
	m := tr.Meta[id]
	if int(m.Lo) != ref.lo || int(m.Hi) != ref.hi {
		t.Fatalf("node %d: range [%d, %d), reference [%d, %d)", id, m.Lo, m.Hi, ref.lo, ref.hi)
	}
	bmin, bmax := tr.Box(id)
	for j := 0; j < tr.Dim; j++ {
		if bmin[j] != ref.min[j] || bmax[j] != ref.max[j] {
			t.Fatalf("node %d dim %d: box [%v, %v], reference [%v, %v]",
				id, j, bmin[j], bmax[j], ref.min[j], ref.max[j])
		}
	}
	if (m.Left < 0) != (ref.left == nil) {
		t.Fatalf("node %d: leafness mismatch (arena leaf=%v, reference leaf=%v)", id, m.Left < 0, ref.left == nil)
	}
	if m.Left >= 0 {
		if m.Right != m.Left+1 {
			t.Fatalf("node %d: children %d, %d not adjacent in the BFS arena", id, m.Left, m.Right)
		}
		compareArenaToRef(t, tr, ref.left, m.Left)
		compareArenaToRef(t, tr, ref.right, m.Right)
	}
}

// TestArenaMatchesReferenceProperty is the layout-equivalence property:
// for random point sets, every split rule, and varied leaf sizes, the
// BFS arena and an independently built pointer tree agree on node
// ranges, bounding boxes, structure, and the reordered point buffer
// (leaf order) — all comparisons exact, no tolerance.
func TestArenaMatchesReferenceProperty(t *testing.T) {
	for _, rule := range []SplitRule{SplitEquiWidth, SplitMedian} {
		rule := rule
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(600)
			d := 1 + rng.Intn(5)
			pts := randomPoints(rng, n, d)
			// Sprinkle duplicates to exercise the degenerate-split path.
			for k := 0; k < n/10; k++ {
				pts.Swap(rng.Intn(n), rng.Intn(n))
				copy(pts.Row(rng.Intn(n)), pts.Row(rng.Intn(n)))
			}
			opts := Options{LeafSize: 1 + rng.Intn(16), Split: rule}
			tr, err := Build(pts, opts)
			if err != nil {
				return false
			}
			refT, refRoot := refBuild(pts, opts)
			for i, v := range tr.Pts.Data {
				if v != refT.pts.Data[i] {
					t.Logf("seed %d: reordered buffers differ at %d", seed, i)
					return false
				}
			}
			compareArenaToRef(t, tr, refRoot, 0)
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("rule %v: %v", rule, err)
		}
	}
}

// refMinSqDist and refMaxSqDist are the two-pass reference formulas for
// the scaled squared distances from x to the nearest and farthest points
// of arena node id's box, computed over tr.Box(id) one slice at a time.
func refMinSqDist(tr *Tree, id int32, x, invH2 []float64) float64 {
	bmin, bmax := tr.Box(id)
	s := 0.0
	for j, xj := range x {
		var d float64
		switch {
		case xj < bmin[j]:
			d = bmin[j] - xj
		case xj > bmax[j]:
			d = xj - bmax[j]
		default:
			continue
		}
		s += d * d * invH2[j]
	}
	return s
}

func refMaxSqDist(tr *Tree, id int32, x, invH2 []float64) float64 {
	bmin, bmax := tr.Box(id)
	s := 0.0
	for j, xj := range x {
		d := math.Max(math.Abs(xj-bmin[j]), math.Abs(xj-bmax[j]))
		s += d * d * invH2[j]
	}
	return s
}

// TestFusedBoundsMatchPointerBounds: the fused single-sweep BoundsSqDist
// (the d=1 and d=2 unrolled arms and the branchless general loop) must
// be bit-identical to the two-pass reference formulas. Baselines and
// the density backends share BoundsSqDist, so this pin is what keeps
// their numbers from moving. Each dimension runs on random points and
// on coarsely rounded points, whose repeated coordinates make boxes
// with lo = hi and whose zeros are a mix of +0 and −0. The queries are
// random points, the training rows themselves (which sit on box faces,
// as the bulk workloads' queries do), box corners, and rows with
// coordinates replaced by ±0.
func TestFusedBoundsMatchPointerBounds(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, d := range []int{1, 2, 3, 5, 8, 27} {
		rng := rand.New(rand.NewSource(int64(100 + d)))
		rounded := randomPoints(rng, 400, d)
		for i, v := range rounded.Data {
			rounded.Data[i] = math.Round(v / 8)
			if rounded.Data[i] == 0 && i%2 == 1 {
				rounded.Data[i] = negZero
			}
		}
		for _, pts := range []*points.Store{randomPoints(rng, 400, d), rounded} {
			tr, err := Build(pts, Options{LeafSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			invH2 := make([]float64, d)
			for j := range invH2 {
				invH2[j] = math.Exp(rng.NormFloat64())
			}
			var queries [][]float64
			for trial := 0; trial < 50; trial++ {
				q := make([]float64, d)
				for j := range q {
					q[j] = rng.NormFloat64() * 25
				}
				queries = append(queries, q)
			}
			for i := 0; i < pts.Len(); i += 8 {
				row := slices.Clone(pts.Row(i))
				queries = append(queries, row)
				signed := slices.Clone(row)
				for j := range signed {
					if rng.Intn(2) == 0 {
						signed[j] = math.Copysign(0, float64(rng.Intn(2)*2-1))
					}
				}
				queries = append(queries, signed)
			}
			for id := int32(0); int(id) < tr.Stats().Nodes; id += 7 {
				lo, hi := tr.Box(id)
				queries = append(queries, slices.Clone(lo), slices.Clone(hi))
			}
			for qi, q := range queries {
				for id := int32(0); int(id) < tr.Stats().Nodes; id++ {
					dmin, dmax := tr.BoundsSqDist(id, q, invH2)
					if want := refMinSqDist(tr, id, q, invH2); math.Float64bits(dmin) != math.Float64bits(want) {
						t.Fatalf("d=%d query %d node %d: fused dmin %v != %v", d, qi, id, dmin, want)
					}
					if want := refMaxSqDist(tr, id, q, invH2); math.Float64bits(dmax) != math.Float64bits(want) {
						t.Fatalf("d=%d query %d node %d: fused dmax %v != %v", d, qi, id, dmax, want)
					}
				}
			}
		}
	}
}

// TestConcurrentTraversalHammer drives many goroutines over one shared
// arena — fused bounds, leaf scans and range queries — so `go test
// -race` can observe any write to shared state after Build. The tree
// must be a pure read-only structure once built.
func TestConcurrentTraversalHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := randomPoints(rng, 4000, 3)
	tr, err := Build(pts, Options{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	invH2 := []float64{1, 0.5, 2}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 300; iter++ {
				q := []float64{rng.NormFloat64() * 15, rng.NormFloat64() * 15, rng.NormFloat64() * 15}
				// Descend from the root by id, checking bounds sanity.
				id := int32(0)
				for !tr.IsLeaf(id) {
					dmin, dmax := tr.BoundsSqDist(id, q, invH2)
					if dmin > dmax {
						errs <- "dmin > dmax"
						return
					}
					left, right := tr.Children(id)
					if iter%2 == 0 {
						id = left
					} else {
						id = right
					}
				}
				if len(tr.LeafFlat(id)) != tr.Count(id)*tr.Dim {
					errs <- "leaf slab length mismatch"
					return
				}
				count := 0
				tr.ForEachInRange(q, invH2, 4, func(p []float64) { count++ })
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestBFSLayout pins the arena ordering contract: ids are assigned
// breadth-first, so every parent precedes its children, siblings are
// adjacent, and child ids increase monotonically with the parent id —
// the locality property the cache-conscious layout is built on.
func TestBFSLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := randomPoints(rng, 3000, 2)
	tr, err := Build(pts, Options{LeafSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	nextChild := int32(1)
	for id := range tr.Meta {
		m := tr.Meta[id]
		if m.Left < 0 {
			if m.Right >= 0 {
				t.Fatalf("node %d: half-leaf", id)
			}
			continue
		}
		if m.Left != nextChild || m.Right != nextChild+1 {
			t.Fatalf("node %d: children %d,%d break BFS order (want %d,%d)", id, m.Left, m.Right, nextChild, nextChild+1)
		}
		nextChild += 2
	}
	if int(nextChild) != len(tr.Meta) {
		t.Fatalf("arena has %d nodes but BFS order accounts for %d", len(tr.Meta), nextChild)
	}
	if len(tr.Boxes) != len(tr.Meta)*2*tr.Dim {
		t.Fatalf("box slab has %d values for %d nodes (dim %d)", len(tr.Boxes), len(tr.Meta), tr.Dim)
	}
	s := tr.Stats()
	if s.Nodes != len(tr.Meta) || s.Nodes != 2*s.Leaves-1 {
		t.Fatalf("stats %+v inconsistent with arena of %d nodes", s, len(tr.Meta))
	}
}
