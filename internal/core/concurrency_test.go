package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentQueries hammers one classifier from many goroutines; run
// with -race to verify the immutable-after-train contract.
func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	data := gauss2D(rng, 1200)
	c, err := Train(data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				q := []float64{r.NormFloat64() * 3, r.NormFloat64() * 3}
				if _, err := c.Score(q); err != nil {
					errs <- err
					return
				}
				if i%50 == 0 {
					if _, _, err := c.DensityBounds(q, 0.05); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := c.Stats().Queries; got != goroutines*(200+4) {
		t.Fatalf("Queries = %d, want %d", got, goroutines*(200+4))
	}
}

// TestParallelTrainWhileServingHammer retrains with Workers=8 while an
// existing classifier serves queries — the streaming retrain shape. Run
// with -race: it exercises the level-parallel tree build, concurrent
// bootstrap scoring, parallel grid fill, and fanned-out refinement pass
// against live traffic, and checks every rebuilt model is bit-identical
// to the serving one.
func TestParallelTrainWhileServingHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	data := gauss2D(rng, 1500)
	cfg := testConfig()
	cfg.Workers = 8
	serving, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := []float64{r.NormFloat64() * 3, r.NormFloat64() * 3}
				if _, err := serving.Score(q); err != nil {
					errs <- err
					return
				}
			}
		}(int64(g))
	}

	retrains := 3
	if testing.Short() {
		retrains = 1
	}
	for i := 0; i < retrains; i++ {
		clf, err := Train(data, cfg)
		if err != nil {
			close(stop)
			t.Fatal(err)
		}
		if clf.Threshold() != serving.Threshold() {
			close(stop)
			t.Fatalf("retrain %d: threshold %.17g, serving model %.17g", i, clf.Threshold(), serving.Threshold())
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestForEachChunkCoversEachIndexOnce checks the fan-out every parallel
// pass shares: at 1–7 workers and at sizes around the inline cut-off,
// body sees every index of [0, n) exactly once, blocks stay in range,
// and the returned QueryStats is the per-index sum whichever goroutine
// ran which block. CI runs it under -race.
func TestForEachChunkCoversEachIndexOnce(t *testing.T) {
	for w := 1; w <= 7; w++ {
		ew := effectiveWorkers(w)
		for _, n := range []int{0, 1, 3, 2*ew - 1, 2 * ew, 1000, 10007} {
			hits := make([]atomic.Int32, n)
			total := forEachChunk(w, n, func(next func() (int, int), qs *QueryStats) {
				for lo, hi := next(); lo < hi; lo, hi = next() {
					if lo < 0 || hi > n {
						t.Errorf("workers=%d n=%d: block [%d, %d) out of range", w, n, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
						qs.PointKernels += int64(i)
						qs.BoundKernels++
						qs.NodesVisited += int64(i % 7)
						if i == n-1 {
							qs.GridHit = true
						}
					}
				}
			})
			var sevens int64
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", w, n, i, got)
				}
				sevens += int64(i % 7)
			}
			want := QueryStats{PointKernels: int64(n) * int64(n-1) / 2, BoundKernels: int64(n), NodesVisited: sevens, GridHit: n > 0}
			if total != want {
				t.Fatalf("workers=%d n=%d: stats %+v, want %+v", w, n, total, want)
			}
		}
	}
}
