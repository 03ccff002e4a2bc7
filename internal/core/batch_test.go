package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestFlatBatchMatchesScore pins the flat batch API to per-row Score:
// ClassifyFlat labels and ScoreFlat results are bit-identical at every
// worker count and batch size, runs of one chunk and of many alike.
func TestFlatBatchMatchesScore(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	clf, err := Train(gauss2D(rng, 2000), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	queries := gauss2D(rng, 4096)
	flat := make([]float64, 0, 2*len(queries))
	want := make([]Result, len(queries))
	for i, x := range queries {
		flat = append(flat, x...)
		if want[i], err = clf.Score(x); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 7} {
		for _, n := range []int{1, 255, 256, 4096} {
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				clf.SetWorkers(workers)
				labels, err := clf.ClassifyFlat(flat[:2*n], n)
				if err != nil {
					t.Fatal(err)
				}
				results, err := clf.ScoreFlat(flat[:2*n], n)
				if err != nil {
					t.Fatal(err)
				}
				if len(labels) != n || len(results) != n {
					t.Fatalf("%d labels and %d results for %d rows", len(labels), len(results), n)
				}
				for i := 0; i < n; i++ {
					if labels[i] != want[i].Label {
						t.Fatalf("row %d: ClassifyFlat %v, Score %v", i, labels[i], want[i].Label)
					}
					if results[i] != want[i] {
						t.Fatalf("row %d: ScoreFlat %+v, Score %+v", i, results[i], want[i])
					}
				}
			})
		}
	}
}

// TestFlatBatchErrors pins the rejection text of the flat batch API,
// which /classify returns to clients as its 400 body.
func TestFlatBatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	clf, err := Train(gauss2D(rng, 500), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		flat []float64
		n    int
		want string
	}{
		{"wrong length", []float64{0, 0, 1}, 2, "core: flat batch has 3 coordinates, want 4 (2 rows of dimension 2)"},
		{"NaN row", []float64{0, 0, math.NaN(), 1}, 2, "core: query 1: core: query coordinate 0 is NaN"},
		{"negative n", nil, -1, "core: negative batch size -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, errC := clf.ClassifyFlat(tc.flat, tc.n)
			_, errS := clf.ScoreFlat(tc.flat, tc.n)
			for _, err := range []error{clf.ValidateFlat(tc.flat, tc.n), errC, errS} {
				if err == nil || err.Error() != tc.want {
					t.Fatalf("error %v, want %q", err, tc.want)
				}
			}
		})
	}
}

// raceEnabled is set by race_test.go under -race, where sync.Pool drops
// pooled values at random, so allocation counts do not hold.
var raceEnabled bool

// TestScoreAllocatesNothing pins the per-query path on the tree backend
// at zero heap allocations, both when the grid answers and when the
// query falls through to the tree traversal. A bulk request runs this
// path once per row.
func TestScoreAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	rng := rand.New(rand.NewSource(72))
	clf, err := Train(gauss2D(rng, 2000), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		x    []float64
		hit  bool
	}{
		{"grid hit", []float64{0, 0}, true},
		{"grid miss", []float64{3, -3}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := clf.Score(tc.x)
			if err != nil {
				t.Fatal(err)
			}
			if r.Stats.GridHit != tc.hit {
				t.Fatalf("grid hit = %v, want %v", r.Stats.GridHit, tc.hit)
			}
			if allocs := testing.AllocsPerRun(200, func() { _, _ = clf.Score(tc.x) }); allocs != 0 {
				t.Fatalf("Score allocates %v times per query, want 0", allocs)
			}
		})
	}
}
