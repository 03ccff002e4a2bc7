package core

import (
	"math"
	"time"

	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
	"tkdc/internal/telemetry"
)

// QueryStats counts the work one density query performed.
type QueryStats struct {
	// PointKernels counts kernel evaluations against individual training
	// points (leaf expansion).
	PointKernels int64
	// BoundKernels counts kernel evaluations against bounding boxes (two
	// per node considered).
	BoundKernels int64
	// NodesVisited counts k-d tree nodes popped from the priority queue.
	NodesVisited int64
	// GridHit records whether the hypergrid cache answered the query
	// before any tree traversal.
	GridHit bool
	// Trace, when non-nil, collects the query's typed stage records. The
	// engine only touches it behind nil checks, so the untraced path
	// carries a nil pointer and nothing else.
	Trace *telemetry.QueryTrace
}

// Kernels returns the total kernel evaluations, point and bound combined —
// the quantity Figures 12 and 16 report as "Kernel Evaluations / pt".
func (q QueryStats) Kernels() int64 { return q.PointKernels + q.BoundKernels }

func (q *QueryStats) add(o QueryStats) {
	q.PointKernels += o.PointKernels
	q.BoundKernels += o.BoundKernels
	q.NodesVisited += o.NodesVisited
	if o.GridHit {
		q.GridHit = true
	}
}

// heapItem is one k-d tree arena node awaiting refinement, with its
// current contribution to the density bounds. Nodes are referenced by
// int32 arena id — the heap is a dense slice of small value structs, no
// pointers for the collector to trace or the traversal to chase.
type heapItem struct {
	wlo float64 // minimum contribution: count/n · K(d_max)
	whi float64 // maximum contribution: count/n · K(d_min)
	pri float64 // whi − wlo, precomputed once at push
	id  int32   // arena node id
}

// refineHeap is a max-heap on whi−wlo (scaled by the node's count via the
// weights themselves), prioritizing the node with the largest potential to
// tighten the total bound (Section 3.4).
type refineHeap struct {
	items []heapItem
}

func (h *refineHeap) len() int { return len(h.items) }

func (h *refineHeap) push(it heapItem) {
	it.pri = it.whi - it.wlo
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].pri >= h.items[i].pri {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *refineHeap) pop() heapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(h.items) && h.items[l].pri > h.items[largest].pri {
			largest = l
		}
		if r < len(h.items) && h.items[r].pri > h.items[largest].pri {
			largest = r
		}
		if largest == i {
			return top
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}

// pending returns the heap's total lower and upper masses, summed afresh
// from its items.
func (h *refineHeap) pending() (lo, hi float64) {
	for _, it := range h.items {
		lo += it.wlo
		hi += it.whi
	}
	return lo, hi
}

// resumFactor is how far the refinement loop lets its running pending
// upper mass fall, relative to its value at the last re-sum, before it
// sums the heap afresh (see run).
const resumFactor = 0x1p-20

// verdict is the stopping rule a density interval [fl, fu] meets, if
// any.
type verdict uint8

const (
	undecided   verdict = iota
	decidedHigh         // threshold rule: fl > tu
	decidedLow          // threshold rule: fu < tl
	precise             // tolerance or relative rule
)

// rules are one query's stopping rules (Algorithm 2): the threshold rule
// fl > tu or fu < tl, the tolerance rule fu − fl < tolCut, and the
// relative rule fu − fl ≤ rel·fl when rel > 0. A rule that must not
// fire gets tl = −Inf, tu = +Inf, tolCut = −Inf or rel ≤ 0.
type rules struct {
	tl, tu, tolCut, rel float64
}

func (r rules) verdict(fl, fu float64) verdict {
	switch {
	case fl > r.tu:
		return decidedHigh
	case fu < r.tl:
		return decidedLow
	case fu-fl < r.tolCut, r.rel > 0 && fu-fl <= r.rel*fl:
		return precise
	}
	return undecided
}

// densityEstimator is the density engine: Algorithm 2's refinement
// loop (run) over one index, started at the tree's root or, on the
// near-first start (BackendSampling), at the frontier its near phase
// leaves (nearfirst.go). Serving, Algorithm 3's passes, the drift probe
// and the nocut baseline all bound densities through it. Not safe for
// concurrent use: callers create one per goroutine (the underlying tree
// and kernel are shared and immutable).
type densityEstimator struct {
	tree  *kdtree.Tree
	kern  *kernel.Gaussian
	invH2 []float64
	n     float64
	heap  refineHeap

	disableThreshold bool
	disableTolerance bool

	// nearFirst selects the near-first start; nearSq, budget and near
	// are its near phase's radius, node budget and scratch heap.
	nearFirst bool
	nearSq    float64 // scaled squared radius of the exact near field
	budget    int     // nearNodes; tests lower it to leave a wider frontier
	near      nearHeap
}

// newDensityEstimator builds the engine over a built index, starting
// where start (BackendTree or BackendSampling) says. cfg supplies the
// pruning-rule switches and must be valid (normalized and validated, as
// DefaultConfig is).
func newDensityEstimator(tree *kdtree.Tree, kern *kernel.Gaussian, cfg Config, start string) *densityEstimator {
	e := &densityEstimator{
		tree:             tree,
		kern:             kern,
		invH2:            kern.InvBandwidthsSq(),
		n:                float64(tree.Size),
		disableThreshold: cfg.DisableThresholdRule,
		disableTolerance: cfg.DisableToleranceRule,
	}
	if start == BackendSampling {
		e.nearFirst = true
		e.nearSq = nearRadiusSq(kern, nearCut)
		e.budget = nearNodes
	}
	return e
}

// BoundDensity refines bounds for x until the threshold rule
// (fl > tu or fu < tl) or the tolerance rule (fu − fl < tolCut) stops
// it, returning certified bounds fl ≤ f(x) ≤ fu and the point estimate
// est the caller compares with the threshold (see refine).
func (e *densityEstimator) BoundDensity(x []float64, tl, tu, tolCut float64, stats *QueryStats) (fl, fu, est float64) {
	stage := "tree/refine"
	if e.nearFirst {
		stage = "far/refine"
	}
	return e.refine(x, e.boundRules(tl, tu, tolCut), stage, stats)
}

// EstimateDensity tightens bounds for x to relative precision rel
// (fu − fl ≤ rel·fl) regardless of any threshold; rel ≤ 0 refines until
// the heap is empty, which is exact.
func (e *densityEstimator) EstimateDensity(x []float64, rel float64, stats *QueryStats) (fl, fu, est float64) {
	stage := "tree/estimate"
	if e.nearFirst {
		stage = "far/estimate"
	}
	return e.refine(x, estimateRules(rel), stage, stats)
}

// boundRules are BoundDensity's stopping rules, less those the
// configuration disables.
func (e *densityEstimator) boundRules(tl, tu, tolCut float64) rules {
	r := rules{tl: tl, tu: tu, tolCut: tolCut}
	if e.disableThreshold {
		r.tl, r.tu = math.Inf(-1), math.Inf(1)
	}
	if e.disableTolerance {
		r.tolCut = math.Inf(-1)
	}
	return r
}

// estimateRules are EstimateDensity's stopping rules: the relative rule
// alone.
func estimateRules(rel float64) rules {
	return rules{tl: math.Inf(-1), tu: math.Inf(1), tolCut: math.Inf(-1), rel: rel}
}

// weights returns the minimum and maximum possible density contribution
// of an arena node's region to a query at x (Equation 6). One fused
// sweep over the node's box produces both distance bounds.
func (e *densityEstimator) weights(id int32, x []float64) (wlo, whi float64) {
	frac := float64(e.tree.Count(id)) / e.n
	dmin, dmax := e.tree.BoundsSqDist(id, x, e.invH2)
	wlo = frac * e.kern.FromScaledSqDist(dmax)
	whi = frac * e.kern.FromScaledSqDist(dmin)
	return wlo, whi
}

// stageMark is where a traced stage began: the clock and the work
// counters at that moment. It is zero when the query is untraced, and
// taking it then costs one nil check.
type stageMark struct {
	start                 time.Time
	nodes, points, bounds int64
}

func markStage(stats *QueryStats) stageMark {
	if stats.Trace == nil {
		return stageMark{}
	}
	return stageMark{time.Now(), stats.NodesVisited, stats.PointKernels, stats.BoundKernels}
}

// stage is the trace stage that began at m and ends now, with the work
// counted since.
func (m stageMark) stage(name string, stats *QueryStats) telemetry.TraceStage {
	return telemetry.TraceStage{
		Name:     name,
		Duration: time.Since(m.start),
		Nodes:    stats.NodesVisited - m.nodes,
		Points:   stats.PointKernels - m.points,
		Bounds:   stats.BoundKernels - m.bounds,
	}
}

// refine runs Algorithm 2's loop under rules r from the engine's start
// and files its trace stage under stage. The tree start pushes the root
// and reports the bound midpoint as the point estimate. The near-first
// start runs the near phase first and refines the frontier it left; a
// decided answer there reports the bound on its decided side: fl when
// it lies above tu, fu when it lies below tl. An answer the tolerance
// or relative rule stopped, or one resolved exactly, reports the
// midpoint. A midpoint inside a wide interval would overstate how far
// the density lies from the threshold: at d = 27 the near phase often
// stops with fu orders of magnitude above fl, and Algorithm 3 builds
// its window from these estimates.
func (e *densityEstimator) refine(x []float64, r rules, stage string, stats *QueryStats) (fl, fu, est float64) {
	if !e.nearFirst {
		mark := markStage(stats)
		e.heap.items = e.heap.items[:0]
		wlo, whi := e.weights(0, x)
		stats.BoundKernels += 2
		e.heap.push(heapItem{id: 0, wlo: wlo, whi: whi})
		fl, fu, _ = e.run(x, 0, r, stage, mark, stats)
		return fl, fu, 0.5 * (fl + fu)
	}
	sumNear := e.nearPhase(x, r.tu, stats)
	fl, fu, v := e.run(x, sumNear/e.n, r, stage, markStage(stats), stats)
	switch v {
	case decidedHigh:
		return fl, fu, fl
	case decidedLow:
		return fl, fu, fu
	}
	return fl, fu, 0.5 * (fl + fu)
}

// run is Algorithm 2's best-first refinement, the one loop behind every
// density bound. The heap holds the unresolved nodes with their
// certified masses (wlo, whi), and resolved is the density of every row
// already summed exactly. run pops the node with the widest mass
// interval, replaces it by its children (or by the exact sum over a
// leaf), and returns certified bounds fl ≤ f(x) ≤ fu with the rule that
// stopped it once a rule fires or the heap is empty:
//
//   - the threshold rule, fl > tu or fu < tl: the classification is
//     already decided;
//   - the tolerance rule, fu − fl < tolCut: the estimate is as precise as
//     approximate classification requires (callers pass ε·t);
//   - the relative rule, fu − fl ≤ rel·fl, when rel > 0: the
//     tolerance-only traversal of Gray & Moore that density queries use.
//
// With every rule disarmed the loop computes the density exactly (up to
// floating point), which is the factor-analysis baseline of Figure 12.
// stage names the trace stage the loop files, which began at mark.
//
// The bounds are fl = resolved + lo and fu = resolved + hi, where lo
// and hi are the heap's pending masses. resolved only grows, but lo and
// hi are running sums: each pop subtracts a node's masses and adds its
// children's. The root's upper mass is near K(0), so a subtraction
// leaves a residue near 2⁻⁵³·K(0) in hi, which would swamp the bounds
// once K(0)/t passes ~10¹³ (at d = 32, t can lie 10¹⁶ below K(0)). So
// lo and hi are summed afresh from the heap whenever hi falls below
// resumFactor of its value at the last re-sum, which keeps the residue
// below ~2⁻³³ of hi itself. An emptied heap leaves resolved alone.
func (e *densityEstimator) run(x []float64, resolved float64, r rules, stage string, mark stageMark, stats *QueryStats) (fl, fu float64, v verdict) {
	tr := stats.Trace
	var pushes int64
	var maxID int32
	if tr != nil {
		for _, it := range e.heap.items {
			maxID = max(maxID, it.id)
		}
	}
	t := e.tree

	lo, hi := e.heap.pending()
	floor := hi * resumFactor
	for e.heap.len() > 0 {
		fl, fu = resolved+lo, resolved+hi
		if v = r.verdict(fl, fu); v != undecided {
			break
		}

		cur := e.heap.pop()
		stats.NodesVisited++
		lo -= cur.wlo
		hi -= cur.whi

		left, right := t.Children(cur.id)
		if left < 0 {
			// One contiguous sweep over the leaf's flat row range.
			resolved += e.kern.Sum(x, t.LeafFlat(cur.id)) / e.n
			stats.PointKernels += int64(t.Count(cur.id))
		} else {
			for _, child := range [2]int32{left, right} {
				cwlo, cwhi := e.weights(child, x)
				stats.BoundKernels += 2
				if cwhi == 0 {
					// The whole subtree is beyond the kernel's truncation
					// radius: it can never contribute, so skip the heap.
					continue
				}
				lo += cwlo
				hi += cwhi
				e.heap.push(heapItem{id: child, wlo: cwlo, whi: cwhi})
				if tr != nil {
					pushes++
					maxID = max(maxID, child)
				}
			}
		}
		if hi < floor {
			lo, hi = e.heap.pending()
			floor = hi * resumFactor
		}
	}
	if e.heap.len() == 0 {
		fl, fu = resolved, resolved
	}
	// Guard against floating-point drift pushing the bounds negative or
	// inverting them.
	if fl < 0 {
		fl = 0
	}
	if fu < fl {
		fu = fl
	}
	if tr != nil {
		// BFS ids grow with depth, so the largest id in the heap marks
		// the deepest level the refinement reached.
		st := mark.stage(stage, stats)
		st.Pushes = pushes
		st.Depth = t.Depth(maxID)
		st.Lower, st.Upper, st.Band = fl, fu, fu-fl
		tr.AddStage(st)
	}
	return fl, fu, v
}

// exactDensity sums every kernel contribution directly (the "simple"
// baseline's inner loop, also used by tests as ground truth).
func exactDensity(pts *points.Store, kern *kernel.Gaussian, x []float64) float64 {
	return kern.Sum(x, pts.Data) / float64(pts.Len())
}
