package core

import (
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
	// SamplingRounds and SampledPoints count the sampling backend's
	// far-field rounds and sample draws (zero on the tree backend).
	SamplingRounds int64
	SampledPoints  int64
	// GridHit records whether the hypergrid cache answered the query
	// before any tree traversal.
	GridHit bool
	// Trace, when non-nil, collects the query's typed stage records. The
	// backends only touch it behind nil checks, so the untraced path
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
	q.SamplingRounds += o.SamplingRounds
	q.SampledPoints += o.SampledPoints
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

// densityEstimator bounds kernel densities over one index. It is the
// reusable engine behind both the classifier and the threshold bootstrap.
// Not safe for concurrent use: callers create one per goroutine (the
// underlying tree and kernel are shared and immutable).
type densityEstimator struct {
	tree  *kdtree.Tree
	kern  *kernel.Gaussian
	invH2 []float64
	n     float64
	heap  refineHeap

	disableThreshold bool
	disableTolerance bool
}

func newDensityEstimator(tree *kdtree.Tree, kern *kernel.Gaussian, disableThreshold, disableTolerance bool) *densityEstimator {
	return &densityEstimator{
		tree:             tree,
		kern:             kern,
		invH2:            kern.InvBandwidthsSq(),
		n:                float64(tree.Size),
		disableThreshold: disableThreshold,
		disableTolerance: disableTolerance,
	}
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

// refine is Algorithm 2, the one best-first refinement behind every
// tree-backend density bound. It pops the node with the widest
// contribution interval, replaces it by its children (or by the exact
// sum over a leaf), and returns certified bounds fl ≤ f(x) ≤ fu once a
// stopping rule fires or the tree is exhausted:
//
//   - the threshold rule, fl > tu or fu < tl: the classification is
//     already decided;
//   - the tolerance rule, fu − fl < tolCut: the estimate is as precise as
//     approximate classification requires (callers pass ε·t);
//   - the relative rule, fu − fl ≤ rel·fl, when rel > 0: the
//     tolerance-only traversal of Gray & Moore that density queries use.
//
// Density queries pass tl = −Inf, tu = +Inf and tolCut = −Inf, which
// never fire; classification passes rel = 0. With the threshold and
// tolerance rules disabled the traversal computes the density exactly
// (up to floating point), which is the factor-analysis baseline of
// Figure 12. stage names the trace stage the refinement files.
func (e *densityEstimator) refine(x []float64, tl, tu, tolCut, rel float64, stage string, stats *QueryStats) (fl, fu float64) {
	tr := stats.Trace
	var stageStart time.Time
	var nodes0, pts0, bounds0 int64
	var pushes int64
	var maxID int32
	if tr != nil {
		stageStart = time.Now()
		nodes0, pts0, bounds0 = stats.NodesVisited, stats.PointKernels, stats.BoundKernels
	}

	e.heap.items = e.heap.items[:0]
	t := e.tree

	wlo, whi := e.weights(0, x)
	stats.BoundKernels += 2
	fl, fu = wlo, whi
	e.heap.push(heapItem{id: 0, wlo: wlo, whi: whi})

	for e.heap.len() > 0 {
		if !e.disableThreshold && (fl > tu || fu < tl) {
			break
		}
		if !e.disableTolerance && fu-fl < tolCut {
			break
		}
		if rel > 0 && fu-fl <= rel*fl {
			break
		}

		cur := e.heap.pop()
		stats.NodesVisited++
		fl -= cur.wlo
		fu -= cur.whi

		left, right := t.Children(cur.id)
		if left < 0 {
			// One contiguous sweep over the leaf's flat row range.
			sum := e.kern.Sum(x, t.LeafFlat(cur.id))
			stats.PointKernels += int64(t.Count(cur.id))
			sum /= e.n
			fl += sum
			fu += sum
			continue
		}
		for _, child := range [2]int32{left, right} {
			cwlo, cwhi := e.weights(child, x)
			stats.BoundKernels += 2
			if cwhi == 0 {
				// The whole subtree is beyond the kernel's truncation
				// radius: it can never contribute, so skip the heap.
				continue
			}
			fl += cwlo
			fu += cwhi
			e.heap.push(heapItem{id: child, wlo: cwlo, whi: cwhi})
			if tr != nil {
				pushes++
				if child > maxID {
					maxID = child
				}
			}
		}
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
		// BFS ids grow with depth, so the largest id pushed marks the
		// deepest level the refinement reached.
		tr.AddStage(telemetry.TraceStage{
			Name:     stage,
			Duration: time.Since(stageStart),
			Nodes:    stats.NodesVisited - nodes0,
			Pushes:   pushes,
			Points:   stats.PointKernels - pts0,
			Bounds:   stats.BoundKernels - bounds0,
			Depth:    t.Depth(maxID),
			Lower:    fl,
			Upper:    fu,
			Band:     fu - fl,
		})
	}
	return fl, fu
}

// exactDensity sums every kernel contribution directly (the "simple"
// baseline's inner loop, also used by tests as ground truth).
func exactDensity(pts *points.Store, kern *kernel.Gaussian, x []float64) float64 {
	return kern.Sum(x, pts.Data) / float64(pts.Len())
}
