package baseline

import (
	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
)

// NoCut is the tolerance-only tree traversal of Gray & Moore: it refines
// per-region density bounds until the relative gap satisfies
// fu − fl ≤ ε·fl, with no knowledge of any classification threshold. This
// reproduces the paper's "nocut" baseline, which in turn emulates
// scikit-learn's k-d tree KDE (Section 4.1).
type NoCut struct {
	tree    *kdtree.Tree
	kern    kernel.Kernel
	invH2   []float64
	eps     float64
	kernels int64
	heap    []nodeBound
}

type nodeBound struct {
	id       int32 // arena node id
	wlo, whi float64
}

// NewNoCut builds the tolerance-only estimator. eps is the relative error
// target (0.01 in the paper's experiments); eps ≤ 0 computes exactly.
func NewNoCut(data *points.Store, kern kernel.Kernel, eps float64) (*NoCut, error) {
	tree, err := kdtree.Build(data, kdtree.Options{})
	if err != nil {
		return nil, err
	}
	return &NoCut{tree: tree, kern: kern, invH2: kern.InvBandwidthsSq(), eps: eps}, nil
}

// Name returns "nocut".
func (nc *NoCut) Name() string { return "nocut" }

// N returns the training set size.
func (nc *NoCut) N() int { return nc.tree.Size }

// Kernels returns total kernel evaluations.
func (nc *NoCut) Kernels() int64 { return nc.kernels }

// Density estimates f(x) to relative precision eps, returning the bound
// midpoint.
func (nc *NoCut) Density(x []float64) float64 {
	fl, fu := nc.Bounds(x)
	return 0.5 * (fl + fu)
}

// Bounds returns certified density bounds with fu − fl ≤ ε·fl.
func (nc *NoCut) Bounds(x []float64) (fl, fu float64) {
	nc.heap = nc.heap[:0]
	n := float64(nc.tree.Size)

	weights := func(id int32) (wlo, whi float64) {
		frac := float64(nc.tree.Count(id)) / n
		dmin, dmax := nc.tree.BoundsSqDist(id, x, nc.invH2)
		wlo = frac * nc.kern.FromScaledSqDist(dmax)
		whi = frac * nc.kern.FromScaledSqDist(dmin)
		nc.kernels += 2
		return wlo, whi
	}

	wlo, whi := weights(0)
	fl, fu = wlo, whi
	nc.push(nodeBound{0, wlo, whi})

	for len(nc.heap) > 0 {
		if nc.eps > 0 && fu-fl <= nc.eps*fl {
			break
		}
		cur := nc.pop()
		fl -= cur.wlo
		fu -= cur.whi
		if nc.tree.IsLeaf(cur.id) {
			sum := kernel.Sum(nc.kern, x, nc.tree.LeafFlat(cur.id))
			nc.kernels += int64(nc.tree.Count(cur.id))
			sum /= n
			fl += sum
			fu += sum
			continue
		}
		left, right := nc.tree.Children(cur.id)
		for _, child := range [2]int32{left, right} {
			cwlo, cwhi := weights(child)
			if cwhi == 0 {
				continue
			}
			fl += cwlo
			fu += cwhi
			nc.push(nodeBound{child, cwlo, cwhi})
		}
	}
	if fl < 0 {
		fl = 0
	}
	if fu < fl {
		fu = fl
	}
	return fl, fu
}

func (nc *NoCut) push(it nodeBound) {
	nc.heap = append(nc.heap, it)
	i := len(nc.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if gap(nc.heap[parent]) >= gap(nc.heap[i]) {
			break
		}
		nc.heap[parent], nc.heap[i] = nc.heap[i], nc.heap[parent]
		i = parent
	}
}

func (nc *NoCut) pop() nodeBound {
	top := nc.heap[0]
	last := len(nc.heap) - 1
	nc.heap[0] = nc.heap[last]
	nc.heap = nc.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(nc.heap) && gap(nc.heap[l]) > gap(nc.heap[largest]) {
			largest = l
		}
		if r < len(nc.heap) && gap(nc.heap[r]) > gap(nc.heap[largest]) {
			largest = r
		}
		if largest == i {
			return top
		}
		nc.heap[i], nc.heap[largest] = nc.heap[largest], nc.heap[i]
		i = largest
	}
}

func gap(it nodeBound) float64 { return it.whi - it.wlo }
