package core

import (
	"math/rand"
	"testing"
)

// poolModels are the trim tests' inputs, one per start: d = 2 data
// trains the tree start and d = 3 data the near-first start, and both
// pool the same engine type through the one trim in putEstimator.
func poolModels(t *testing.T, seed int64, n int) []*Classifier {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var models []*Classifier
	for _, tc := range []struct {
		start string
		data  [][]float64
	}{
		{BackendTree, gauss2D(rng, n)},
		{BackendSampling, latentData(rng, n, 3, 2)},
	} {
		clf, err := Train(tc.data, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if clf.Backend() != tc.start {
			t.Fatalf("d=%d trained the %q start, want %q", clf.Dim(), clf.Backend(), tc.start)
		}
		models = append(models, clf)
	}
	return models
}

// TestEstimatorPoolCapsRetainedHeap: one pathological query can grow an
// engine's refine heap to O(tree nodes); returning that engine to the
// pool must not pin the oversized backing array for the classifier's
// lifetime. putEstimator drops any heap above maxPooledHeapItems, on
// either start.
func TestEstimatorPoolCapsRetainedHeap(t *testing.T) {
	for _, clf := range poolModels(t, 21, 300) {
		start := clf.Backend()
		// A modest heap must survive pooling untouched (the reuse the
		// pool exists for).
		small := clf.getEstimator()
		small.heap.items = make([]heapItem, 0, maxPooledHeapItems/2)
		clf.putEstimator(small)
		if cap(small.heap.items) != maxPooledHeapItems/2 {
			t.Fatalf("%s: pool dropped a modest heap (cap %d)", start, cap(small.heap.items))
		}

		// An oversized heap must be released on Put.
		big := clf.getEstimator()
		big.heap.items = make([]heapItem, 0, 4*maxPooledHeapItems)
		clf.putEstimator(big)
		if cap(big.heap.items) != 0 {
			t.Fatalf("%s: pool retained a pathological heap (cap %d, limit %d)",
				start, cap(big.heap.items), maxPooledHeapItems)
		}
	}
}

// TestEstimatorPoolNotMonotone cycles engines through pathological
// growth and normal queries: no engine coming out of the pool may ever
// carry a heap above the cap, so pooled memory cannot ratchet up
// monotonically with the worst query ever served.
func TestEstimatorPoolNotMonotone(t *testing.T) {
	for _, clf := range poolModels(t, 22, 500) {
		start := clf.Backend()
		data := clf.TrainingData()
		for round := 0; round < 50; round++ {
			e := clf.getEstimator()
			if cap(e.heap.items) > maxPooledHeapItems {
				t.Fatalf("%s round %d: pool handed out a heap of cap %d (limit %d)",
					start, round, cap(e.heap.items), maxPooledHeapItems)
			}
			// Simulate a pathological traversal growing the heap.
			e.heap.items = append(e.heap.items[:0], make([]heapItem, 2*maxPooledHeapItems)...)
			clf.putEstimator(e)
			// Interleave real queries so the pool keeps cycling.
			if _, err := clf.Score(data.Row(round % data.Len())); err != nil {
				t.Fatal(err)
			}
		}
	}
}
