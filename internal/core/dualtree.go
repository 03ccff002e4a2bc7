package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tkdc/internal/telemetry"
)

// ClassifyAllDualTree labels a batch of query points using a dual-tree
// strategy — the future-work direction the paper sketches in Section 5.
// Queries are grouped spatially; for each group, a single traversal of
// the data index computes density bounds that hold for every query in
// the group at once (using box-to-box distances). A group whose
// collective bounds clear the threshold is classified in one shot;
// groups that straddle it split recursively, with small groups falling
// back to per-query classification.
//
// The result is label-compatible with Score/ClassifyAll under the
// approximate-classification contract (Problem 1): points with densities
// farther than ε·t from the threshold receive identical labels. On dense
// evaluation grids — the rendering workloads of Figures 1 and 2 — the
// grouping removes ~25–35% of kernel evaluations; queries near the
// decision contour still require individual traversals, which bounds the
// achievable gain (and is why the paper lists dual-tree integration as
// future work rather than a core optimization). On scattered queries
// few groups certify, which is why /classify uses ClassifyFlat instead.
//
// The pass runs on one goroutine and records one dualtree/batch span
// instead of per-query samples. Sampling-backend classifiers have no
// box-to-box bounds and serve the batch through the per-query sweep.
func (c *Classifier) ClassifyAllDualTree(points [][]float64) ([]Label, error) {
	if c.backend != BackendTree {
		return c.ClassifyAll(points)
	}
	// The group pass works on flat row-major storage; slice-of-rows
	// callers pay one copy here.
	n := len(points)
	flat := make([]float64, 0, n*c.dim)
	for i, x := range points {
		if err := c.checkQuery(x); err != nil {
			return nil, fmt.Errorf("core: query %d: %w", i, err)
		}
		flat = append(flat, x...)
	}
	if n == 0 {
		return []Label{}, nil
	}
	traced := c.rec.Enabled()
	var start time.Time
	if traced {
		start = time.Now()
	}
	be := c.getEstimator()
	defer c.putEstimator(be)
	est := be.DensityBackend.(*densityEstimator)
	out := make([]Label, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var tr *telemetry.QueryTrace
	if traced && c.sink != nil && c.sink.TraceEnabled() {
		tr = c.sink.StartTrace()
	}
	g := &groupClassifier{c: c, est: est, flat: flat, dim: c.dim, out: out}
	g.classify(idx, 0)
	c.counters.add(int64(n), g.gridHits, g.stats)
	if traced {
		lat := time.Since(start)
		if tr != nil {
			// One flight record covers the whole batch: per-query latency
			// is meaningless when a single traversal answers a group, so
			// the stages attribute queries to the certified-group and
			// per-query-fallback regimes instead.
			tr.Start = start
			tr.Latency = lat
			tr.Kind = "dualtree"
			tr.Backend = BackendTree
			tr.Threshold = c.threshold
			tr.Certified = true
			tr.PointKernels = g.stats.PointKernels
			tr.BoundKernels = g.stats.BoundKernels
			tr.Nodes = g.stats.NodesVisited
			tr.Items = int64(n)
			tr.AddStage(telemetry.TraceStage{
				Name:    "groups/certified",
				Groups:  g.certGroups,
				Queries: g.certQueries,
			})
			tr.AddStage(telemetry.TraceStage{
				Name:    "groups/fallback",
				Queries: g.fallbackQueries,
			})
			c.sink.FinishTrace(tr)
		}
		c.rec.RecordSpan(telemetry.Span{
			Name:     "dualtree/batch",
			Duration: lat,
			Kernels:  g.stats.Kernels(),
			Items:    int64(n),
		})
	}
	return out, nil
}

// groupClassifier carries the shared state of one dual-tree pass.
// Queries live in flat row-major storage; row(i) views query i.
type groupClassifier struct {
	c        *Classifier
	est      *densityEstimator
	flat     []float64
	dim      int
	out      []Label
	stats    QueryStats
	gridHits int64
	// certGroups/certQueries count groups certified in one traversal and
	// the queries they answered; fallbackQueries counts individual
	// per-query traversals (flight-record attribution).
	certGroups      int64
	certQueries     int64
	fallbackQueries int64
}

// row returns query i as a dim-length view into the flat buffer.
func (g *groupClassifier) row(i int) []float64 {
	return g.flat[i*g.dim : (i+1)*g.dim]
}

// groupLeafSize is the group size at which the pass falls back to
// per-query traversal.
const groupLeafSize = 8

// groupNodeBudget caps the data nodes expanded per group attempt before
// splitting the group; generous enough to certify homogeneous regions,
// small enough not to waste work on straddling ones.
const groupNodeBudget = 16

func (g *groupClassifier) classify(idx []int, depth int) {
	if len(idx) == 0 {
		return
	}
	if len(idx) == 1 {
		g.out[idx[0]] = g.scoreOne(g.row(idx[0]))
		return
	}

	lo, hi := g.queryBox(idx)
	// Only attempt a group traversal once the box has shrunk to roughly
	// bandwidth scale: wider boxes straddle density levels by
	// construction, so certifying them wastes the traversal. The gate
	// compares the box diagonal to the kernel bandwidth per dimension.
	diagSq := 0.0
	for j := range lo {
		w := hi[j] - lo[j]
		diagSq += w * w * g.est.invH2[j]
	}
	if diagSq <= float64(len(lo)) {
		if label, ok := g.certify(lo, hi); ok {
			g.certGroups++
			g.certQueries += int64(len(idx))
			for _, i := range idx {
				g.out[i] = label
			}
			return
		}
	}
	if len(idx) <= groupLeafSize {
		g.fallback(idx)
		return
	}

	// Split the group along its widest extent at the median.
	dim := 0
	for j := 1; j < len(lo); j++ {
		if hi[j]-lo[j] > hi[dim]-lo[dim] {
			dim = j
		}
	}
	if hi[dim] == lo[dim] {
		// All queries identical: one traversal answers them all.
		label := g.scoreOne(g.row(idx[0]))
		g.certQueries += int64(len(idx) - 1)
		for _, i := range idx {
			g.out[i] = label
		}
		return
	}
	// Partition around the spatial midpoint in O(m): cheaper than a
	// median sort and yields better-shaped boxes.
	split := 0.5 * (lo[dim] + hi[dim])
	i, j := 0, len(idx)-1
	for i <= j {
		if g.row(idx[i])[dim] < split {
			i++
		} else {
			idx[i], idx[j] = idx[j], idx[i]
			j--
		}
	}
	if i == 0 || i == len(idx) {
		// Degenerate partition (duplicates piled at one end): fall back
		// to a rank split.
		sort.Slice(idx, func(a, b int) bool {
			return g.row(idx[a])[dim] < g.row(idx[b])[dim]
		})
		i = len(idx) / 2
	}
	g.classify(idx[:i], depth+1)
	g.classify(idx[i:], depth+1)
}

func (g *groupClassifier) fallback(idx []int) {
	for _, i := range idx {
		g.out[i] = g.scoreOne(g.row(i))
	}
}

// scoreOne mirrors Classifier.Score's decision using the shared estimator
// and aggregated stats.
func (g *groupClassifier) scoreOne(x []float64) Label {
	g.fallbackQueries++
	c := g.c
	if c.grid != nil {
		if lb := c.grid.LowerBoundDensity(x, c.gridKDiag); lb > c.threshold {
			g.stats.GridHit = true
			g.gridHits++
			return High
		}
	}
	fl, fu := g.est.boundDensity(x, c.threshold, c.threshold, c.cfg.Epsilon*c.threshold, &g.stats)
	if 0.5*(fl+fu) > c.threshold {
		return High
	}
	return Low
}

func (g *groupClassifier) queryBox(idx []int) (lo, hi []float64) {
	d := g.c.dim
	lo = append([]float64(nil), g.row(idx[0])...)
	hi = append([]float64(nil), g.row(idx[0])...)
	for _, i := range idx[1:] {
		p := g.row(i)
		for j := 0; j < d; j++ {
			if p[j] < lo[j] {
				lo[j] = p[j]
			}
			if p[j] > hi[j] {
				hi[j] = p[j]
			}
		}
	}
	return lo, hi
}

// certify attempts to classify every query inside box [lo, hi] with one
// traversal. It maintains bounds valid for all queries simultaneously:
// the lower bound uses the farthest box-to-box distance, the upper bound
// the nearest. Certification succeeds when the collective bounds clear
// the threshold.
func (g *groupClassifier) certify(lo, hi []float64) (Label, bool) {
	est := g.est
	// Problem 1 leaves labels unconstrained inside the ±ε·t band, so a
	// group may be certified HIGH once every member's density provably
	// exceeds t·(1−ε), and LOW once it is provably under t·(1+ε) — the
	// same latitude the per-query midpoint rule enjoys.
	tLo := g.c.threshold * (1 - g.c.cfg.Epsilon)
	tHi := g.c.threshold * (1 + g.c.cfg.Epsilon)
	est.heap.items = est.heap.items[:0]

	wlo, whi := g.groupWeights(lo, hi, est, 0)
	fl, fu := wlo, whi
	est.heap.push(heapItem{id: 0, wlo: wlo, whi: whi})

	for budget := groupNodeBudget; est.heap.len() > 0 && budget > 0; budget-- {
		if fl > tLo {
			return High, true
		}
		if fu < tHi {
			return Low, true
		}
		cur := est.heap.pop()
		g.stats.NodesVisited++
		fl -= cur.wlo
		fu -= cur.whi
		left, right := est.tree.Children(cur.id)
		if left < 0 {
			// Refine a leaf by scoring its points individually against
			// the query box (point-to-box distances) — the tightest bound
			// available while the query side stays a box. The leaf is one
			// contiguous flat sweep.
			var sumLo, sumHi float64
			leaf := est.tree.LeafFlat(cur.id)
			d := est.tree.Dim
			for off := 0; off < len(leaf); off += d {
				p := leaf[off : off+d]
				dminSq, dmaxSq := 0.0, 0.0
				for j := range p {
					inv := est.invH2[j]
					var gap float64
					switch {
					case p[j] > hi[j]:
						gap = p[j] - hi[j]
					case p[j] < lo[j]:
						gap = lo[j] - p[j]
					}
					dminSq += gap * gap * inv
					far := math.Max(p[j]-lo[j], hi[j]-p[j])
					dmaxSq += far * far * inv
				}
				sumLo += est.kern.FromScaledSqDist(dmaxSq)
				sumHi += est.kern.FromScaledSqDist(dminSq)
			}
			g.stats.PointKernels += 2 * int64(est.tree.Count(cur.id))
			fl += sumLo / est.n
			fu += sumHi / est.n
			continue
		}
		for _, child := range [2]int32{left, right} {
			cwlo, cwhi := g.groupWeights(lo, hi, est, child)
			if cwhi == 0 {
				continue
			}
			fl += cwlo
			fu += cwhi
			est.heap.push(heapItem{id: child, wlo: cwlo, whi: cwhi})
		}
	}
	switch {
	case fl > tLo:
		return High, true
	case fu < tHi:
		return Low, true
	default:
		return Low, false
	}
}

// groupWeights bounds a data node's density contribution for every query
// in box [qlo, qhi] at once. The node's box is read straight from the
// arena's box slab.
func (g *groupClassifier) groupWeights(qlo, qhi []float64, est *densityEstimator, id int32) (wlo, whi float64) {
	nlo, nhi := est.tree.Box(id)
	minSq, maxSq := 0.0, 0.0
	for j := range qlo {
		inv := est.invH2[j]
		// Nearest gap between the intervals [qlo, qhi] and [Min, Max].
		var gap float64
		switch {
		case nlo[j] > qhi[j]:
			gap = nlo[j] - qhi[j]
		case qlo[j] > nhi[j]:
			gap = qlo[j] - nhi[j]
		}
		minSq += gap * gap * inv
		// Farthest distance between the intervals.
		far := math.Max(nhi[j]-qlo[j], qhi[j]-nlo[j])
		maxSq += far * far * inv
	}
	g.stats.BoundKernels += 2
	frac := float64(est.tree.Count(id)) / est.n
	wlo = frac * est.kern.FromScaledSqDist(maxSq)
	whi = frac * est.kern.FromScaledSqDist(minSq)
	return wlo, whi
}
