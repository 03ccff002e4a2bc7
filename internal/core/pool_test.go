package core

import (
	"math/rand"
	"testing"
)

// TestEstimatorPoolCapsRetainedHeap: one pathological query can grow an
// estimator's refine heap to O(tree nodes); returning that estimator to
// the pool must not pin the oversized backing array for the classifier's
// lifetime. putEstimator drops any heap above maxPooledHeapItems.
func TestEstimatorPoolCapsRetainedHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	clf, err := Train(gauss2D(rng, 300), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// A modest heap must survive pooling untouched (the reuse the pool
	// exists for). d=2 resolves to the tree backend, so the pooled
	// backends are densityEstimators.
	pb := clf.getEstimator()
	small := pb.DensityBackend.(*densityEstimator)
	small.heap.items = make([]heapItem, 0, maxPooledHeapItems/2)
	clf.putEstimator(pb)
	if cap(small.heap.items) != maxPooledHeapItems/2 {
		t.Fatalf("pool dropped a modest heap (cap %d)", cap(small.heap.items))
	}

	// An oversized heap must be released on Put.
	pb = clf.getEstimator()
	big := pb.DensityBackend.(*densityEstimator)
	big.heap.items = make([]heapItem, 0, 4*maxPooledHeapItems)
	clf.putEstimator(pb)
	if cap(big.heap.items) != 0 {
		t.Fatalf("pool retained a pathological heap (cap %d, limit %d)",
			cap(big.heap.items), maxPooledHeapItems)
	}
}

// TestEstimatorPoolNotMonotone cycles estimators through pathological
// growth and normal queries: no estimator coming out of the pool may
// ever carry a heap above the cap, so pooled memory cannot ratchet up
// monotonically with the worst query ever served.
func TestEstimatorPoolNotMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	data := gauss2D(rng, 500)
	clf, err := Train(data, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		pb := clf.getEstimator()
		e := pb.DensityBackend.(*densityEstimator)
		if cap(e.heap.items) > maxPooledHeapItems {
			t.Fatalf("round %d: pool handed out a heap of cap %d (limit %d)",
				round, cap(e.heap.items), maxPooledHeapItems)
		}
		// Simulate a pathological traversal growing the heap.
		e.heap.items = append(e.heap.items[:0], make([]heapItem, 2*maxPooledHeapItems)...)
		clf.putEstimator(pb)
		// Interleave real queries so the pool keeps cycling.
		if _, err := clf.Score(data[round%len(data)]); err != nil {
			t.Fatal(err)
		}
	}
}
