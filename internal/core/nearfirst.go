package core

// The near-first start (BackendSampling) runs Algorithm 2 for data of
// dimension 3 and up in the order of DEANN (Karppa, Aumüller & Pagh):
// it resolves the query's own neighbourhood exactly first, and only
// then hands what is left to Algorithm 2's refinement loop.
//
// The near phase is a best-first traversal of the kdtree arena ordered
// by (minimum scaled distance, node count): nodes entirely within the
// near radius — the scaled distance where the kernel has decayed to
// nearCut·K(0) — and leaves touching it are summed exactly; nodes
// entirely beyond the kernel's support contribute an exact zero and are
// dropped. The traversal expands at most nearNodes interior nodes, so
// its cost stays bounded even in high dimensions, where distance bounds
// degenerate and an uncapped range query would scan every point. The
// near phase tests Algorithm 2's threshold rule on its certified lower
// bound as it goes, and stops as soon as that bound clears the
// threshold (the query's own leaf usually does, since it holds the self
// term K(0)/n).
//
// The frontier left when the near phase stops enters the refinement
// heap, each node with its certified masses count/n·K(dmax) and
// count/n·K(dmin), and the near sum becomes the loop's resolved density.
// The loop (densityEstimator.run) then refines until a stopping rule
// fires or the heap is empty, exactly as it does from the tree's root,
// so every answer is certified. No random number is drawn: the answer
// depends only on (data, config, query).

import (
	"math"

	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
)

// The near phase's tuning. Snapshots record nearCut (samplerParams).
const (
	// nearCut is the relative kernel value that bounds the near field:
	// the near radius is the scaled distance where the kernel falls to
	// nearCut·K(0).
	nearCut = 1e-3
	// nearNodes caps the interior-node expansions of the near phase per
	// query.
	nearNodes = 64
)

// nearItem is one arena node awaiting near-phase processing.
type nearItem struct {
	dmin, dmax float64
	id         int32
	count      int32
}

// nearHeap is a min-heap on (dmin, count): closest node first, smallest
// first among ties, which drives the traversal down the query's own
// containment path before spending budget on sibling regions.
type nearHeap struct {
	items []nearItem
}

func (h *nearHeap) len() int { return len(h.items) }

func nearLess(a, b nearItem) bool {
	if a.dmin != b.dmin {
		return a.dmin < b.dmin
	}
	return a.count < b.count
}

func (h *nearHeap) push(it nearItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !nearLess(h.items[i], h.items[parent]) {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *nearHeap) pop() nearItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && nearLess(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < len(h.items) && nearLess(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// nearFirst is the near-first start: a budgeted near phase over the
// estimator's tree, whose frontier seeds the estimator's refinement
// loop. It accounts its work into QueryStats as the tree start does:
// PointKernels are exact sums, BoundKernels the kernels at node distance
// bounds, and NodesVisited the nodes popped in either phase. With
// stats.Trace set it files one "near" stage for the near phase and one
// "far/refine" (or "far/estimate") stage for the loop; the untraced path
// does no timing or bookkeeping for them.
//
// A nearFirst is not safe for concurrent use; the classifier pools one
// per goroutine (the underlying tree and kernel are shared and
// immutable).
type nearFirst struct {
	est    densityEstimator
	nearSq float64 // scaled squared radius of the exact near field
	budget int     // nearNodes; tests lower it to leave a wider frontier
	near   nearHeap
}

// newNearFirst builds the near-first start over a built tree and its
// kernel. The rule switches come from cfg.
func newNearFirst(tree *kdtree.Tree, kern *kernel.Gaussian, cfg Config) *nearFirst {
	return &nearFirst{
		est:    *newDensityEstimator(tree, kern, cfg.DisableThresholdRule, cfg.DisableToleranceRule),
		nearSq: nearRadiusSq(kern, nearCut),
		budget: nearNodes,
	}
}

// nearRadiusSq finds the smallest scaled squared distance at which the
// kernel has decayed to cut·K(0), by bisection on the monotone kernel
// between 0 and its truncation radius.
func nearRadiusSq(kern *kernel.Gaussian, cut float64) float64 {
	target := cut * kern.AtZero()
	hi := kern.SupportSqRadius()
	lo := 0.0
	for i := 0; i < 64 && hi-lo > 1e-9*(1+hi); i++ {
		mid := 0.5 * (lo + hi)
		if kern.FromScaledSqDist(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// nearPhase runs the budgeted best-first traversal. It returns the exact
// kernel sum over every resolved row and leaves the unresolved frontier
// in the estimator's refinement heap. Rows in nodes wholly beyond the
// kernel's support contribute an exact zero and appear in neither.
//
// A finite tu arms Algorithm 2's threshold rule on the HIGH side: the
// traversal stops as soon as its certified lower bound exceeds tu (see
// resolve), and the rest of its frontier joins the heap, whose lower
// mass then decides the query before the loop pops a node.
func (s *nearFirst) nearPhase(x []float64, tu float64, stats *QueryStats) (sumNear float64) {
	mark := markStage(stats)
	depth := 0

	t := s.est.tree
	s.near.items = s.near.items[:0]
	s.est.heap.items = s.est.heap.items[:0]

	// Greedy descent to the leaf nearest the query first, pushing the
	// off-path sibling at each level. Near the data's center the shallow
	// boxes all have dmin ≈ 0 and pure best-first order degenerates into
	// a breadth-first sweep of the tree's top, exhausting the budget
	// before any leaf resolves; the descent guarantees the query's own
	// leaf — and with it a training row's own kernel contribution — is
	// summed exactly for O(depth) extra bound evaluations, at any budget.
	decided := false
	dmin, dmax := t.BoundsSqDist(0, x, s.est.invH2)
	it := nearItem{dmin: dmin, dmax: dmax, id: 0, count: int32(t.Size)}
	for {
		stats.NodesVisited++
		depth++
		if it.dmin > s.nearSq {
			s.addFrontier(it, stats)
			break
		}
		m := &t.Meta[it.id]
		if it.dmax <= s.nearSq || m.Left < 0 {
			decided = s.resolve(x, it, tu, &sumNear, stats)
			break
		}
		lmin, lmax := t.BoundsSqDist(m.Left, x, s.est.invH2)
		rmin, rmax := t.BoundsSqDist(m.Right, x, s.est.invH2)
		l := nearItem{dmin: lmin, dmax: lmax, id: m.Left, count: int32(t.Count(m.Left))}
		r := nearItem{dmin: rmin, dmax: rmax, id: m.Right, count: int32(t.Count(m.Right))}
		if nearLess(l, r) {
			s.near.push(r)
			it = l
		} else {
			s.near.push(l)
			it = r
		}
	}

	budget := s.budget
	for !decided && s.near.len() > 0 {
		it := s.near.pop()
		stats.NodesVisited++
		if it.dmin > s.nearSq {
			s.addFrontier(it, stats)
			continue
		}
		m := &t.Meta[it.id]
		if it.dmax <= s.nearSq || m.Left < 0 {
			// Wholly inside the near radius, or a leaf touching it:
			// one contiguous exact sweep.
			decided = s.resolve(x, it, tu, &sumNear, stats)
			continue
		}
		if budget == 0 {
			s.addFrontier(it, stats)
			continue
		}
		budget--
		for _, child := range [2]int32{m.Left, m.Right} {
			cmin, cmax := t.BoundsSqDist(child, x, s.est.invH2)
			s.near.push(nearItem{dmin: cmin, dmax: cmax, id: child, count: int32(t.Count(child))})
		}
	}
	// A decided traversal leaves its frontier unresolved.
	for _, it := range s.near.items {
		s.addFrontier(it, stats)
	}
	if stats.Trace != nil {
		st := mark.stage("near", stats)
		st.Depth = depth
		st.Budget = s.budget - budget
		stats.Trace.AddStage(st)
	}
	return sumNear
}

// resolve sums a node the near phase resolves exactly (one wholly inside
// the near radius, or a leaf touching it) into *sumNear, and reports
// whether the near phase's certified lower bound now exceeds tu. A
// finite tu is first tested against the lower bound the node's own
// K(dmax) mass adds: when that already clears tu the node is left
// unsummed and joins the frontier. Testing before the sum matters at
// low d, where the first node inside the near radius can hold thousands
// of rows.
func (s *nearFirst) resolve(x []float64, it nearItem, tu float64, sumNear *float64, stats *QueryStats) bool {
	e := &s.est
	if !math.IsInf(tu, 1) {
		lower := float64(it.count) * e.kern.FromScaledSqDist(it.dmax)
		stats.BoundKernels++
		if (*sumNear+lower)/e.n > tu {
			s.addFrontier(it, stats)
			return true
		}
	}
	m := &e.tree.Meta[it.id]
	*sumNear += e.kern.Sum(x, e.tree.Pts.Slab(int(m.Lo), int(m.Hi)))
	stats.PointKernels += int64(it.count)
	return *sumNear/e.n > tu
}

// addFrontier pushes an unresolved node into the refinement heap with
// its certified masses count/n·K(dmax) and count/n·K(dmin). A zero upper
// mass means every point in the node lies beyond the kernel's support —
// an exact zero contribution, left out of the heap.
func (s *nearFirst) addFrontier(it nearItem, stats *QueryStats) {
	e := &s.est
	k := e.kern.FromScaledSqDist(it.dmin)
	stats.BoundKernels++
	if k == 0 {
		return
	}
	frac := float64(it.count) / e.n
	e.heap.push(heapItem{id: it.id, wlo: frac * e.kern.FromScaledSqDist(it.dmax), whi: frac * k})
	stats.BoundKernels++
}

// refine runs the near phase and then Algorithm 2's loop from the
// frontier it left, under rules r. A decided answer reports the bound on
// its decided side as the point estimate: fl when it lies above tu, fu
// when it lies below tl. An answer the tolerance or relative rule
// stopped, or one resolved exactly, reports the midpoint. A midpoint
// inside a wide interval would overstate how far the density lies from
// the threshold: at d = 27 the near phase often stops with fu orders of
// magnitude above fl, and Algorithm 3 builds its window from these
// estimates.
func (s *nearFirst) refine(x []float64, r rules, stage string, stats *QueryStats) (fl, fu, est float64) {
	sumNear := s.nearPhase(x, r.tu, stats)
	fl, fu, v := s.est.run(x, sumNear/s.est.n, r, stage, markStage(stats), stats)
	switch v {
	case decidedHigh:
		return fl, fu, fl
	case decidedLow:
		return fl, fu, fu
	}
	return fl, fu, 0.5 * (fl + fu)
}

// BoundDensity bounds the density at x under the threshold and
// tolerance rules of tKDC's Algorithm 2, started from the near phase's
// frontier. The returned fl ≤ est ≤ fu are certified: fl ≤ f(x) ≤ fu.
func (s *nearFirst) BoundDensity(x []float64, tl, tu, tolCut float64, stats *QueryStats) (fl, fu, est float64) {
	return s.refine(x, s.est.boundRules(tl, tu, tolCut), "far/refine", stats)
}

// EstimateDensity bounds the density at x to relative precision rel
// (fu − fl ≤ rel·fl) regardless of any threshold; rel ≤ 0 refines until
// the heap is empty, which is exact.
func (s *nearFirst) EstimateDensity(x []float64, rel float64, stats *QueryStats) (fl, fu, est float64) {
	return s.refine(x, estimateRules(rel), "far/estimate", stats)
}

// Name returns BackendSampling, the tag the near-first start serves
// under.
func (s *nearFirst) Name() string { return BackendSampling }

// Recycle drops an oversized refinement heap before pooling; the near
// phase's own heap is bounded by its node budget.
func (s *nearFirst) Recycle() { s.est.Recycle() }
