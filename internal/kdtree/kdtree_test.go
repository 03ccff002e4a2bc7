package kdtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tkdc/internal/points"
)

func randomPoints(rng *rand.Rand, n, d int) *points.Store {
	pts := points.New(n, d)
	for i := 0; i < n*d; i++ {
		pts.Data[i] = rng.NormFloat64() * 10
	}
	return pts
}

func storeOf(rows [][]float64) *points.Store {
	s, err := points.FromRows(rows)
	if err != nil {
		panic(err)
	}
	return s
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := Build(&points.Store{}, Options{}); err == nil {
		t.Fatal("zero-dimensional input should error")
	}
	if _, err := Build(&points.Store{Dim: 1, Data: []float64{math.NaN()}}, Options{}); err == nil {
		t.Fatal("NaN coordinate should error")
	}
	if _, err := Build(&points.Store{Dim: 1, Data: []float64{math.Inf(1)}}, Options{}); err == nil {
		t.Fatal("Inf coordinate should error")
	}
}

func TestBuildDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 100, 2)
	before := append([]float64(nil), pts.Data...)
	if _, err := Build(pts, Options{LeafSize: 4}); err != nil {
		t.Fatal(err)
	}
	for i, v := range pts.Data {
		if v != before[i] {
			t.Fatal("Build mutated the caller's buffer")
		}
	}
}

func TestSingleLeafTree(t *testing.T) {
	pts := storeOf([][]float64{{1, 2}, {3, 4}})
	tr, err := Build(pts, Options{LeafSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.IsLeaf(0) || tr.Count(0) != 2 {
		t.Fatal("two points with LeafSize 10 should be a single leaf")
	}
	if tr.Height() != 1 || tr.NodeCount() != 1 {
		t.Fatalf("Height=%d NodeCount=%d, want 1/1", tr.Height(), tr.NodeCount())
	}
}

func TestAllIdenticalPoints(t *testing.T) {
	pts := points.New(100, 3)
	for i := range pts.Data {
		pts.Data[i] = 7
	}
	tr, err := Build(pts, Options{LeafSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.IsLeaf(0) {
		t.Fatal("identical points cannot be split; root must be a leaf")
	}
	if tr.Count(0) != 100 {
		t.Fatalf("count = %d, want 100", tr.Count(0))
	}
	bmin, bmax := tr.Box(0)
	for j := 0; j < 3; j++ {
		if bmin[j] != 7 || bmax[j] != 7 {
			t.Fatal("degenerate bounding box expected")
		}
	}
}

func TestHeavyDuplicates(t *testing.T) {
	// Half the points at one location, half spread out: splits must still
	// terminate and preserve every point.
	rng := rand.New(rand.NewSource(2))
	pts := points.New(2000, 2)
	for i := 0; i < 1000; i++ {
		pts.Data[2*i], pts.Data[2*i+1] = 5, 5
	}
	for i := 2000; i < len(pts.Data); i++ {
		pts.Data[i] = rng.NormFloat64() * 10
	}
	tr, err := Build(pts, Options{LeafSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
}

// checkInvariants walks the tree verifying: counts sum, ranges partition,
// points inside boxes, child boxes inside parent boxes, and total point
// preservation.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	total := 0
	var walk func(id int32)
	walk = func(id int32) {
		n := tr.Meta[id]
		if n.Lo < 0 || int(n.Hi) > tr.Size || n.Lo >= n.Hi {
			t.Fatalf("node range [%d, %d) out of bounds", n.Lo, n.Hi)
		}
		bmin, bmax := tr.Box(id)
		if tr.IsLeaf(id) {
			total += tr.Count(id)
			for i := int(n.Lo); i < int(n.Hi); i++ {
				p := tr.Pts.Row(i)
				for j, v := range p {
					if v < bmin[j] || v > bmax[j] {
						t.Fatalf("point %v outside box [%v, %v] dim %d", p, bmin, bmax, j)
					}
				}
			}
			return
		}
		l, r := tr.Meta[n.Left], tr.Meta[n.Right]
		if l.Lo != n.Lo || r.Hi != n.Hi || l.Hi != r.Lo {
			t.Fatalf("children [%d,%d)+[%d,%d) do not partition [%d,%d)",
				l.Lo, l.Hi, r.Lo, r.Hi, n.Lo, n.Hi)
		}
		if tr.Count(n.Left)+tr.Count(n.Right) != tr.Count(id) {
			t.Fatalf("child counts %d+%d != %d", tr.Count(n.Left), tr.Count(n.Right), tr.Count(id))
		}
		for _, c := range [2]int32{n.Left, n.Right} {
			cmin, cmax := tr.Box(c)
			for j := range bmin {
				if cmin[j] < bmin[j] || cmax[j] > bmax[j] {
					t.Fatalf("child box [%v, %v] escapes parent [%v, %v]", cmin, cmax, bmin, bmax)
				}
			}
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(0)
	if total != tr.Size {
		t.Fatalf("tree preserved %d of %d points", total, tr.Size)
	}
}

// Property: invariants hold for random datasets under both split rules.
func TestTreeInvariantsProperty(t *testing.T) {
	for _, rule := range []SplitRule{SplitEquiWidth, SplitMedian} {
		rule := rule
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(500)
			d := 1 + rng.Intn(5)
			pts := randomPoints(rng, n, d)
			tr, err := Build(pts, Options{LeafSize: 1 + rng.Intn(16), Split: rule})
			if err != nil {
				return false
			}
			// Reuse checkInvariants via a sub-test-free walk: replicate
			// minimal checks inline to return bool.
			ok := true
			total := 0
			var walk func(id int32)
			walk = func(id int32) {
				if !ok {
					return
				}
				if tr.IsLeaf(id) {
					total += tr.Count(id)
					bmin, bmax := tr.Box(id)
					lo, hi := int(tr.Meta[id].Lo), int(tr.Meta[id].Hi)
					for i := lo; i < hi; i++ {
						for j, v := range tr.Pts.Row(i) {
							if v < bmin[j] || v > bmax[j] {
								ok = false
							}
						}
					}
					return
				}
				l, r := tr.Children(id)
				if tr.Count(l)+tr.Count(r) != tr.Count(id) {
					ok = false
					return
				}
				walk(l)
				walk(r)
			}
			walk(0)
			return ok && total == n
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("rule %v: %v", rule, err)
		}
	}
}

// Property: BoundsSqDist's dmin ≤ actual scaled distance ≤ dmax for
// every point under a node.
func TestDistanceBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randomPoints(rng, 200, 3)
		tr, err := Build(pts, Options{LeafSize: 8})
		if err != nil {
			return false
		}
		invH2 := []float64{1, 0.25, 4}
		q := []float64{rng.NormFloat64() * 20, rng.NormFloat64() * 20, rng.NormFloat64() * 20}
		ok := true
		var walk func(id int32)
		walk = func(id int32) {
			if !ok {
				return
			}
			lo, hi := tr.BoundsSqDist(id, q, invH2)
			if lo > hi {
				ok = false
				return
			}
			if tr.IsLeaf(id) {
				for i := int(tr.Meta[id].Lo); i < int(tr.Meta[id].Hi); i++ {
					s := sqDist(q, tr.Pts.Row(i), invH2)
					if s < lo-1e-9 || s > hi+1e-9 {
						ok = false
						return
					}
				}
				return
			}
			l, r := tr.Children(id)
			walk(l)
			walk(r)
		}
		walk(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMinSqDistInsideBoxIsZero(t *testing.T) {
	pts := storeOf([][]float64{{0, 0}, {10, 10}})
	tr, _ := Build(pts, Options{})
	invH2 := []float64{1, 1}
	if got, _ := tr.BoundsSqDist(0, []float64{5, 5}, invH2); got != 0 {
		t.Fatalf("inside-box dmin = %v, want 0", got)
	}
	if got, _ := tr.BoundsSqDist(0, []float64{-3, 0}, invH2); got != 9 {
		t.Fatalf("dmin = %v, want 9", got)
	}
	if _, got := tr.BoundsSqDist(0, []float64{0, 0}, invH2); got != 200 {
		t.Fatalf("dmax = %v, want 200", got)
	}
}

func TestForEachInRangeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, 1000, 2)
	tr, err := Build(pts, Options{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	invH2 := []float64{1, 1}
	for trial := 0; trial < 20; trial++ {
		q := []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		sqR := rng.Float64() * 100
		want := 0
		for i := 0; i < pts.Len(); i++ {
			if sqDist(q, pts.Row(i), invH2) <= sqR {
				want++
			}
		}
		got := 0
		tr.ForEachInRange(q, invH2, sqR, func(p []float64) { got++ })
		if got != want {
			t.Fatalf("range query found %d points, brute force %d (r²=%v)", got, want, sqR)
		}
	}
}

func TestSplitRuleString(t *testing.T) {
	if SplitEquiWidth.String() != "equiwidth" || SplitMedian.String() != "median" {
		t.Fatal("SplitRule names wrong")
	}
	if SplitRule(9).String() == "" {
		t.Fatal("unknown rule should still render")
	}
}

func TestMedianSplitBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randomPoints(rng, 1<<12, 2)
	tr, err := Build(pts, Options{LeafSize: 1, Split: SplitMedian})
	if err != nil {
		t.Fatal(err)
	}
	// A balanced tree over 4096 points with leaf size 1 has height ≈ 13;
	// allow slack for duplicate handling.
	if h := tr.Height(); h > 20 {
		t.Fatalf("median tree height = %d, want ≈13", h)
	}
	checkInvariants(t, tr)
}

func TestEquiWidthInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 5000, 4)
	tr, err := Build(pts, Options{LeafSize: 16, Split: SplitEquiWidth})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
}

func BenchmarkBuild100k2D(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	pts := randomPoints(rng, 100_000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(pts, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pts := randomPoints(rng, 100_000, 2)
	tr, err := Build(pts, Options{})
	if err != nil {
		b.Fatal(err)
	}
	invH2 := []float64{1, 1}
	q := []float64{0, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		tr.ForEachInRange(q, invH2, 4, func(p []float64) { count++ })
	}
}

func TestForEachInRangeZeroRadius(t *testing.T) {
	pts := storeOf([][]float64{{1, 1}, {2, 2}, {1, 1}})
	tr, err := Build(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	invH2 := []float64{1, 1}
	count := 0
	tr.ForEachInRange([]float64{1, 1}, invH2, 0, func(p []float64) { count++ })
	if count != 2 {
		t.Fatalf("zero radius matched %d points, want the 2 exact duplicates", count)
	}
}

func TestForEachInRangeHugeRadiusVisitsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randomPoints(rng, 500, 3)
	tr, err := Build(pts, Options{LeafSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	invH2 := []float64{1, 1, 1}
	count := 0
	tr.ForEachInRange([]float64{0, 0, 0}, invH2, math.Inf(1), func(p []float64) { count++ })
	if count != 500 {
		t.Fatalf("infinite radius visited %d points, want 500", count)
	}
}

// TestEquiWidthSplitsAtTrimmedMidpoint checks the Section 3.7 rule
// directly: for a two-cluster axis, the first split must land between
// the clusters (the trimmed midpoint), not at the median inside the
// bigger cluster.
func TestEquiWidthSplitsAtTrimmedMidpoint(t *testing.T) {
	// 80 points near 0, 20 points near 100: the 90th percentile falls in
	// the far cluster, so the trimmed midpoint (≈50) separates the
	// clusters, while a median split would cut inside the big cluster.
	pts := points.New(100, 1)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 80; i++ {
		pts.Data[i] = rng.NormFloat64()
	}
	for i := 80; i < 100; i++ {
		pts.Data[i] = 100 + rng.NormFloat64()
	}
	tr, err := Build(pts, Options{LeafSize: 16, Split: SplitEquiWidth})
	if err != nil {
		t.Fatal(err)
	}
	if tr.IsLeaf(0) {
		t.Fatal("root should split")
	}
	// The children should separate the clusters: one child entirely
	// below 50, the other entirely above.
	l, r := tr.Children(0)
	_, lmax := tr.Box(l)
	rmin, _ := tr.Box(r)
	if lmax[0] > 50 || rmin[0] < 50 {
		t.Fatalf("equi-width split failed to separate clusters: left max %v, right min %v", lmax[0], rmin[0])
	}
	if tr.Count(l) != 80 || tr.Count(r) != 20 {
		t.Fatalf("cluster counts %d/%d, want 80/20", tr.Count(l), tr.Count(r))
	}

	med, err := Build(pts, Options{LeafSize: 16, Split: SplitMedian})
	if err != nil {
		t.Fatal(err)
	}
	if ml, mr := med.Children(0); med.Count(ml) != 50 && med.Count(mr) != 50 {
		t.Fatalf("median split should balance: %d/%d", med.Count(ml), med.Count(mr))
	}
}

// TestTreeStats checks the shape statistics computed at Build: a full
// binary tree has Nodes = 2*Leaves - 1, every point lives in exactly one
// leaf, and the depth is consistent with the leaf-size bound.
func TestTreeStats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 7, 100, 1000} {
		pts := randomPoints(rng, n, 3)
		tr, err := Build(pts, Options{LeafSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		s := tr.Stats()
		if s.Nodes != 2*s.Leaves-1 {
			t.Fatalf("n=%d: Nodes = %d, Leaves = %d; want Nodes = 2*Leaves-1", n, s.Nodes, s.Leaves)
		}
		if s.MaxDepth < 1 {
			t.Fatalf("n=%d: MaxDepth = %d, want >= 1", n, s.MaxDepth)
		}
		// Every split halves at worst unevenly but strictly, so depth
		// cannot exceed the point count.
		if s.MaxDepth > n {
			t.Fatalf("n=%d: MaxDepth = %d exceeds point count", n, s.MaxDepth)
		}
		// Count points by walking leaves.
		var total int
		var walk func(id int32)
		walk = func(id int32) {
			if tr.IsLeaf(id) {
				total += tr.Count(id)
				return
			}
			l, r := tr.Children(id)
			walk(l)
			walk(r)
		}
		walk(0)
		if total != n {
			t.Fatalf("n=%d: leaves hold %d points", n, total)
		}
		if n <= 16 {
			if s.Leaves != 1 || s.MaxDepth != 1 {
				t.Fatalf("n=%d fits one leaf: stats %+v", n, s)
			}
		}
	}
}

// TestDepthMatchesTraversal cross-checks the level-table Depth lookup
// against an explicit walk from the root: every reachable node's Depth
// equals its traversal depth (root = 1, the Stats.MaxDepth convention),
// and the deepest node agrees with Stats.
func TestDepthMatchesTraversal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 100, 3000} {
		pts := randomPoints(rng, n, 3)
		tr, err := Build(pts, Options{LeafSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		type entry struct {
			id int32
			d  int
		}
		queue := []entry{{0, 1}}
		maxDepth, visited := 0, 0
		for len(queue) > 0 {
			e := queue[0]
			queue = queue[1:]
			visited++
			if got := tr.Depth(e.id); got != e.d {
				t.Fatalf("n=%d: Depth(%d) = %d, want %d", n, e.id, got, e.d)
			}
			if e.d > maxDepth {
				maxDepth = e.d
			}
			if l, r := tr.Children(e.id); l >= 0 {
				queue = append(queue, entry{l, e.d + 1}, entry{r, e.d + 1})
			}
		}
		if maxDepth != tr.Stats().MaxDepth {
			t.Fatalf("n=%d: walked max depth %d, Stats().MaxDepth %d", n, maxDepth, tr.Stats().MaxDepth)
		}
		if visited != tr.NodeCount() {
			t.Fatalf("n=%d: walk visited %d nodes, arena holds %d", n, visited, tr.NodeCount())
		}
	}
}
