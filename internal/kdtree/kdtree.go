// Package kdtree implements the spatial index tKDC traverses (Sections
// 3.1–3.2 and 3.7 of the paper): a k-d tree whose every node tracks the
// bounding box and point count of its region, in the style of
// multi-resolution k-d trees (Deng & Moore).
//
// The tree is an index-permutation tree over flat storage: Build copies
// the input points.Store once and reorders the copy in place so that
// every node — leaf or interior — owns a contiguous row range [Lo, Hi)
// of the buffer. A leaf expansion is therefore a single contiguous sweep
// of Count()*Dim float64s, with no per-point pointer chase.
//
// The nodes themselves are a structure-of-arrays arena rather than a
// pointer graph: one contiguous []NodeMeta slab holds every node's row
// range and child indices, and one flat []float64 slab holds every
// node's bounding box (Min then Max, 2·Dim values per node). Nodes are
// laid out in BFS order, so a parent and its two children — the three
// boxes every refinement step touches — are near each other in memory.
// Traversals address nodes by int32 id; BoundsSqDist computes the
// min and max scaled distances to a node's box in one fused sweep.
//
// Construction is level-synchronized BFS: the nodes of one depth occupy
// a contiguous id range, and expanding a node — computing its bounding
// box and partitioning its rows — touches only that node's own row
// range, box slot, and result slot. With Options.Workers ≥ 2 the
// expansions of a level therefore run concurrently; only the child
// append, which assigns arena ids, is serialized in id order. Every
// split is a deterministic function of the node's row range, so the
// arena slabs and the reordered point buffer are bit-identical at any
// worker count.
//
// Two split rules are provided. The paper's default for tKDC is the
// "equi-width" trimmed midpoint — split at (x⁽¹⁰⁾ + x⁽⁹⁰⁾)/2, the midpoint
// of the 10th and 90th percentiles along the cycling axis — which
// identifies tightly constrained regions faster than balanced median
// splits when the kernel decays exponentially (Section 3.7). Median
// splitting is retained for the ablation study (Figures 12 and 16).
package kdtree

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tkdc/internal/points"
)

// SplitRule selects how Build partitions points at each node.
type SplitRule int

const (
	// SplitEquiWidth splits at the trimmed midpoint (x⁽¹⁰⁾+x⁽⁹⁰⁾)/2 of the
	// node's points along the split axis (the paper's default for tKDC).
	SplitEquiWidth SplitRule = iota
	// SplitMedian splits at the median, producing a balanced tree (the
	// classic construction, used as the ablation baseline).
	SplitMedian
)

// String returns the rule's name.
func (r SplitRule) String() string {
	switch r {
	case SplitEquiWidth:
		return "equiwidth"
	case SplitMedian:
		return "median"
	default:
		return fmt.Sprintf("SplitRule(%d)", int(r))
	}
}

// DefaultLeafSize is the maximum number of points kept in a leaf when
// Options.LeafSize is zero.
const DefaultLeafSize = 32

// Options configures Build.
type Options struct {
	// LeafSize caps the number of points per leaf (DefaultLeafSize if 0).
	LeafSize int
	// Split selects the partitioning rule.
	Split SplitRule
	// Workers fans each BFS level's node expansions out across this many
	// goroutines. The built tree is bit-identical at any worker count;
	// values below 2 build single-threaded, and the count is clamped to
	// a small multiple of GOMAXPROCS.
	Workers int
}

// NoChild marks a leaf in NodeMeta.Left/Right.
const NoChild int32 = -1

// NodeMeta is one arena node: the contiguous row range [Lo, Hi) it owns
// in the tree's reordered flat buffer, and its children as arena ids
// (NoChild for leaves; interior nodes always have both children and the
// children partition the range). Sixteen bytes — four nodes per cache
// line.
type NodeMeta struct {
	Lo, Hi      int32
	Left, Right int32
}

// Tree is an immutable k-d tree over a point set. It is safe for
// concurrent readers once built.
type Tree struct {
	Dim  int
	Size int
	Opts Options
	// Pts is the tree's private build-time-reordered copy of the point
	// set: node ranges index into it, and Pts.Slab(lo, hi) is the
	// contiguous leaf scan. Readers must treat it as immutable.
	Pts *points.Store
	// Meta is the node arena in BFS order; id 0 is the root.
	Meta []NodeMeta
	// Boxes holds every node's bounding box in one slab: node id's Min
	// occupies Boxes[id·2d : id·2d+d] and its Max the following d values
	// (the tight box of the points under the node, not the splitting
	// hyperplanes — what makes the Equation 6 distance bounds tight).
	Boxes []float64

	// levels records the first arena id of each BFS level; because ids
	// are assigned breadth-first, a node's depth is the level whose id
	// range contains it (see Depth).
	levels []int32

	stats Stats
}

// Stats describes the shape of a built tree — the structural context
// behind per-query node-visit telemetry (a query visiting close to
// Nodes has degenerated to a full scan; MaxDepth bounds traversal stack
// behaviour).
type Stats struct {
	// Nodes counts all nodes, interior and leaf.
	Nodes int
	// Leaves counts leaf nodes.
	Leaves int
	// MaxDepth is the deepest node's depth, counting the root as 1.
	MaxDepth int
}

// Stats returns the tree's shape, computed once at Build.
func (t *Tree) Stats() Stats { return t.stats }

// IsLeaf reports whether arena node id is a leaf.
func (t *Tree) IsLeaf(id int32) bool { return t.Meta[id].Left < 0 }

// Count returns the number of points under arena node id.
func (t *Tree) Count(id int32) int {
	m := &t.Meta[id]
	return int(m.Hi - m.Lo)
}

// Children returns the child ids of arena node id (NoChild, NoChild for
// leaves).
func (t *Tree) Children(id int32) (left, right int32) {
	m := &t.Meta[id]
	return m.Left, m.Right
}

// Box returns views of arena node id's bounding box in the box slab.
// The slices alias the arena and must not be modified.
func (t *Tree) Box(id int32) (min, max []float64) {
	d := t.Dim
	off := int(id) * 2 * d
	return t.Boxes[off : off+d : off+d], t.Boxes[off+d : off+2*d : off+2*d]
}

// LeafFlat returns the contiguous flat view of arena node id's points —
// the batch a leaf expansion hands to kernel evaluation.
func (t *Tree) LeafFlat(id int32) []float64 {
	m := &t.Meta[id]
	return t.Pts.Slab(int(m.Lo), int(m.Hi))
}

// BoundsSqDist returns the minimum and maximum bandwidth-scaled squared
// distances from x to arena node id's bounding box in one fused sweep:
// dmin = Σ_j clamp_j²·invH2_j (clamp_j the distance from x_j to
// [Min_j, Max_j], 0 inside) and dmax = Σ_j far_j²·invH2_j (far_j the
// distance to the farther face). One pass over the box slab produces
// both; d=1 and d=2 (the paper's common low-dimensional case,
// Figures 7–9) are hand-unrolled.
func (t *Tree) BoundsSqDist(id int32, x, invH2 []float64) (dmin, dmax float64) {
	d := t.Dim
	off := int(id) * 2 * d
	switch d {
	case 1:
		lo, hi := t.Boxes[off], t.Boxes[off+1]
		return boundsDim(x[0], lo, hi, invH2[0])
	case 2:
		b := t.Boxes[off : off+4 : off+4]
		n0, f0 := boundsDim(x[0], b[0], b[2], invH2[0])
		n1, f1 := boundsDim(x[1], b[1], b[3], invH2[1])
		return n0 + n1, f0 + f1
	}
	lo := t.Boxes[off : off+d : off+d]
	hi := t.Boxes[off+d : off+2*d : off+2*d]
	x = x[:d]
	invH2 = invH2[:d]
	for j, xj := range x {
		n, f := boundsDim(xj, lo[j], hi[j], invH2[j])
		dmin += n
		dmax += f
	}
	return dmin, dmax
}

// boundsDim is the per-dimension term of BoundsSqDist: the scaled
// squared distances from coordinate x to the nearer and farther ends of
// [lo, hi]. The near clamp keeps the positional case analysis — a
// branchless max-of-differences variant measured ~10% slower at d=8
// (it trades the predictable inside/outside branches for two extra
// subtractions on every dimension).
func boundsDim(x, lo, hi, inv float64) (near, far float64) {
	var n float64
	switch {
	case x < lo:
		n = lo - x
	case x > hi:
		n = x - hi
	}
	f := x - lo
	if g := hi - x; g > f {
		f = g
	}
	return n * n * inv, f * f * inv
}

// Build constructs a k-d tree over the given store. The store is copied
// once and the copy reordered in place, so the caller's buffer is never
// mutated or referenced. All coordinates must be finite.
func Build(pts *points.Store, opts Options) (*Tree, error) {
	if pts.Len() == 0 {
		return nil, errors.New("kdtree: no points")
	}
	if pts.Dim == 0 {
		return nil, errors.New("kdtree: zero-dimensional points")
	}
	if pts.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("kdtree: %d points exceed the int32 arena limit", pts.Len())
	}
	if err := pts.CheckFinite(); err != nil {
		return nil, fmt.Errorf("kdtree: %w", err)
	}
	if opts.LeafSize <= 0 {
		opts.LeafSize = DefaultLeafSize
	}
	t := &Tree{Dim: pts.Dim, Size: pts.Len(), Opts: opts, Pts: pts.Clone()}

	// Rough arena capacity: a tree with b-sized leaves over n points has
	// at most 2·ceil(n/b)−1 nodes when splits stay non-degenerate.
	capGuess := 2*((t.Size+opts.LeafSize-1)/opts.LeafSize) - 1
	if capGuess < 1 {
		capGuess = 1
	}
	t.Meta = make([]NodeMeta, 1, capGuess)
	t.Meta[0] = NodeMeta{Lo: 0, Hi: int32(t.Size), Left: NoChild, Right: NoChild}
	t.Boxes = make([]float64, 0, capGuess*2*t.Dim)

	// Level-synchronized BFS: nodes enter the arena in the order they
	// are created, so id order is breadth-first and each depth occupies
	// the contiguous id range [lvlStart, lvlEnd). Expanding the nodes of
	// a level (boxes + row partitions) touches disjoint state per node
	// and fans out across workers; appending the resulting children —
	// the only id-assigning step — happens afterwards in id order, which
	// reproduces the sequential arena exactly.
	workers := buildWorkers(opts.Workers)
	var mids []int32
	for lvlStart, depth := 0, 0; lvlStart < len(t.Meta); depth++ {
		lvlEnd := len(t.Meta)
		t.levels = append(t.levels, int32(lvlStart))
		t.stats.MaxDepth = depth + 1
		// Extend the box slab to cover the level up front: node id's box
		// lives at the fixed offset id·2d, so workers write disjoint
		// regions of the grown slab.
		t.Boxes = append(t.Boxes, make([]float64, (lvlEnd-lvlStart)*2*t.Dim)...)
		if cap(mids) < lvlEnd-lvlStart {
			mids = make([]int32, lvlEnd-lvlStart)
		}
		mids = mids[:lvlEnd-lvlStart]
		t.expandLevel(lvlStart, lvlEnd, depth, workers, mids)

		for id := lvlStart; id < lvlEnd; id++ {
			mid := mids[id-lvlStart]
			if mid < 0 {
				continue
			}
			left := int32(len(t.Meta))
			t.Meta = append(t.Meta,
				NodeMeta{Lo: t.Meta[id].Lo, Hi: mid, Left: NoChild, Right: NoChild},
				NodeMeta{Lo: mid, Hi: t.Meta[id].Hi, Left: NoChild, Right: NoChild},
			)
			t.Meta[id].Left = left
			t.Meta[id].Right = left + 1
		}
		lvlStart = lvlEnd
	}
	t.stats.Nodes = len(t.Meta)
	t.stats.Leaves = (len(t.Meta) + 1) / 2

	return t, nil
}

// buildWorkers clamps the configured build fan-out to a small multiple
// of GOMAXPROCS (a misconfigured Workers must not spawn thousands of
// goroutines per level); values below 2 mean single-threaded.
func buildWorkers(w int) int {
	if limit := runtime.GOMAXPROCS(0) * 4; w > limit {
		w = limit
	}
	if w < 1 {
		w = 1
	}
	return w
}

// expandLevel expands every node of one BFS level: mids[i] receives the
// partition boundary of node lvlStart+i, or -1 when it stays a leaf.
// Each expansion reads and writes only its node's row range, box slot,
// and mids slot, so the level fans out across workers with a shared
// atomic cursor (node costs are skewed — an equi-width level can pair a
// huge node with near-empty siblings — so static chunking would idle
// workers).
func (t *Tree) expandLevel(lvlStart, lvlEnd, depth, workers int, mids []int32) {
	n := lvlEnd - lvlStart
	if workers > n {
		workers = n
	}
	if workers < 2 {
		for i := 0; i < n; i++ {
			mids[i] = t.expandOne(lvlStart+i, depth)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				mids[i] = t.expandOne(lvlStart+i, depth)
			}
		}()
	}
	wg.Wait()
}

// expandOne computes node id's bounding box and, when the node splits,
// partitions its rows, returning the boundary row (-1 for a leaf).
func (t *Tree) expandOne(id, depth int) int32 {
	lo, hi := int(t.Meta[id].Lo), int(t.Meta[id].Hi)
	t.fillBox(id, lo, hi)
	if hi-lo <= t.Opts.LeafSize {
		return -1
	}
	mid, ok := t.splitRange(id, lo, hi, depth)
	if !ok {
		return -1
	}
	return int32(mid)
}

// splitRange selects the axis and partitions rows [lo, hi) for node id,
// returning the boundary row, or ok=false when the node cannot split
// (zero extent on every axis, or irreparably degenerate duplicates).
// The axis selection, split value, and duplicate fallbacks are the
// pointer-era build logic verbatim, so the reordered buffer is
// bit-identical across the arena refactor.
func (t *Tree) splitRange(id int, lo, hi, depth int) (mid int, ok bool) {
	// Cycle through the dimensions one per level (Section 3.1), skipping
	// axes with zero extent. If every axis has zero extent the points are
	// all identical and further splitting is pointless.
	off := id * 2 * t.Dim
	bmin := t.Boxes[off : off+t.Dim]
	bmax := t.Boxes[off+t.Dim : off+2*t.Dim]
	dim := -1
	for o := 0; o < t.Dim; o++ {
		cand := (depth + o) % t.Dim
		if bmax[cand] > bmin[cand] {
			dim = cand
			break
		}
	}
	if dim < 0 {
		return 0, false
	}

	split := t.splitValue(lo, hi, dim)
	mid = t.partition(lo, hi, dim, split)
	if mid == lo || mid == hi {
		// Degenerate split (heavily duplicated coordinates): fall back to
		// a median partition by rank, which always separates a non-trivial
		// prefix because the axis has positive extent.
		sort.Sort(&rowSorter{pts: t.Pts, lo: lo, hi: hi, dim: dim})
		mid = lo + (hi-lo)/2
		// Move mid off a run of duplicates so left's max < right's min.
		for mid < hi && t.Pts.At(mid, dim) == t.Pts.At(mid-1, dim) {
			mid++
		}
		if mid == hi {
			mid = lo + (hi-lo)/2
			for mid > lo && t.Pts.At(mid, dim) == t.Pts.At(mid-1, dim) {
				mid--
			}
		}
		if mid == lo || mid == hi {
			return 0, false
		}
	}
	return mid, true
}

// rowSorter sorts the rows of [lo, hi) in place by their dim-th
// coordinate.
type rowSorter struct {
	pts    *points.Store
	lo, hi int
	dim    int
}

func (s *rowSorter) Len() int           { return s.hi - s.lo }
func (s *rowSorter) Less(i, j int) bool { return s.pts.At(s.lo+i, s.dim) < s.pts.At(s.lo+j, s.dim) }
func (s *rowSorter) Swap(i, j int)      { s.pts.Swap(s.lo+i, s.lo+j) }

// splitValue returns the coordinate to split at along dim for rows
// [lo, hi).
func (t *Tree) splitValue(lo, hi, dim int) float64 {
	vals := make([]float64, hi-lo)
	for i := range vals {
		vals[i] = t.Pts.At(lo+i, dim)
	}
	sort.Float64s(vals)
	switch t.Opts.Split {
	case SplitMedian:
		return vals[len(vals)/2]
	default: // SplitEquiWidth
		p10 := vals[int(0.10*float64(len(vals)-1))]
		p90 := vals[int(0.90*float64(len(vals)-1))]
		return 0.5 * (p10 + p90)
	}
}

// partition reorders rows [lo, hi) into (< split) then (≥ split) along
// dim and returns the boundary row.
func (t *Tree) partition(lo, hi, dim int, split float64) int {
	i, j := lo, hi-1
	for i <= j {
		if t.Pts.At(i, dim) < split {
			i++
		} else {
			t.Pts.Swap(i, j)
			j--
		}
	}
	return i
}

// fillBox computes the tight bounding box of rows [lo, hi) and writes it
// (Min then Max) into node id's slot of the pre-extended box slab.
func (t *Tree) fillBox(id, lo, hi int) {
	d := t.Dim
	off := id * 2 * d
	bmin := t.Boxes[off : off+d]
	bmax := t.Boxes[off+d : off+2*d]
	copy(bmin, t.Pts.Row(lo))
	copy(bmax, t.Pts.Row(lo))
	flat := t.Pts.Slab(lo+1, hi)
	for o := 0; o < len(flat); o += d {
		for j := 0; j < d; j++ {
			v := flat[o+j]
			if v < bmin[j] {
				bmin[j] = v
			}
			if v > bmax[j] {
				bmax[j] = v
			}
		}
	}
}

// ForEachInRange invokes fn for every indexed point whose bandwidth-scaled
// squared distance to x is at most sqRadius. It prunes subtrees whose
// bounding boxes lie entirely outside the radius, the classic range query
// the rkde baseline is built on (Section 4.1). fn receives a view into
// the tree's flat buffer, valid only for the duration of the call.
func (t *Tree) ForEachInRange(x, invH2 []float64, sqRadius float64, fn func(p []float64)) {
	stack := make([]int32, 1, t.stats.MaxDepth+1)
	stack[0] = 0
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if dmin, _ := t.BoundsSqDist(id, x, invH2); dmin > sqRadius {
			continue
		}
		m := &t.Meta[id]
		if m.Left < 0 {
			for i := int(m.Lo); i < int(m.Hi); i++ {
				p := t.Pts.Row(i)
				if sq := sqDist(x, p, invH2); sq <= sqRadius {
					fn(p)
				}
			}
			continue
		}
		// Push right first so the left child is visited first, matching
		// the recursive pointer-era order.
		stack = append(stack, m.Right, m.Left)
	}
}

func sqDist(a, b, invH2 []float64) float64 {
	s := 0.0
	for j, aj := range a {
		d := aj - b[j]
		s += d * d * invH2[j]
	}
	return s
}

// Depth returns the depth of arena node id, counting the root as 1
// (the same convention as Stats.MaxDepth). BFS ids are contiguous per
// level, so the depth is a binary search over the level-start table —
// cheap enough for per-query trace annotation without storing a depth
// per node.
func (t *Tree) Depth(id int32) int {
	return sort.Search(len(t.levels), func(i int) bool { return t.levels[i] > id })
}

// Height returns the height of the tree (a single leaf has height 1).
func (t *Tree) Height() int { return t.stats.MaxDepth }

// NodeCount returns the total number of nodes.
func (t *Tree) NodeCount() int { return len(t.Meta) }
