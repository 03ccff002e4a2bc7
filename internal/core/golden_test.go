package core

import (
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current implementation")

// goldenDataset builds the fixed synthetic dataset the golden fixture is
// defined over: two well-separated Gaussian clusters plus a sprinkle of
// uniform background outliers. It depends only on math/rand, never on the
// code under test, so the fixture pins implementation behaviour.
func goldenDataset() ([][]float64, [][]float64) {
	rng := rand.New(rand.NewSource(7))
	const n = 400
	data := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i < 180:
			data = append(data, []float64{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5})
		case i < 360:
			data = append(data, []float64{6 + rng.NormFloat64()*0.8, 3 + rng.NormFloat64()*0.8})
		default:
			data = append(data, []float64{rng.Float64()*20 - 7, rng.Float64()*20 - 7})
		}
	}
	queries := make([][]float64, 0, 64)
	for i := 0; i < 64; i++ {
		queries = append(queries, []float64{rng.Float64()*16 - 5, rng.Float64()*14 - 5})
	}
	return data, queries
}

func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.P = 0.1
	cfg.Seed = 7
	return cfg
}

// goldenFixture captures the numerical outcome of training: the refined
// threshold t̃(p), its bounds (t_low, t_high), and the labels of both the
// training points and an independent query grid.
type goldenFixture struct {
	Threshold   float64 `json:"threshold"`
	TLow        float64 `json:"t_low"`
	THigh       float64 `json:"t_high"`
	TrainLabels []int   `json:"train_labels"`
	QueryLabels []int   `json:"query_labels"`
}

func computeGolden(t *testing.T) goldenFixture {
	return computeGoldenWith(t, goldenConfig())
}

func computeGoldenWith(t *testing.T, cfg Config) goldenFixture {
	t.Helper()
	data, queries := goldenDataset()
	clf, err := Train(data, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	fix := goldenFixture{Threshold: clf.Threshold()}
	fix.TLow, fix.THigh = clf.ThresholdBounds()
	for _, x := range data {
		l, err := clf.Classify(x)
		if err != nil {
			t.Fatalf("Classify: %v", err)
		}
		fix.TrainLabels = append(fix.TrainLabels, int(l))
	}
	for _, x := range queries {
		l, err := clf.Classify(x)
		if err != nil {
			t.Fatalf("Classify: %v", err)
		}
		fix.QueryLabels = append(fix.QueryLabels, int(l))
	}
	return fix
}

// TestGoldenDeterminism pins the exact numerical outcome of training and
// classification on a fixed dataset/seed/config. Any refactor of the
// storage layer, tree build, or traversal order must keep reproducing the
// committed fixture, which certifies the change is a pure layout change.
func TestGoldenDeterminism(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	got := computeGolden(t)
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	compareToFixture(t, got, path)
}

// TestGoldenDeterminismParallel re-derives the fixture with Workers = 4:
// the parallel training pipeline — level-parallel tree build, concurrent
// bootstrap scoring, parallel grid fill, fanned-out refinement pass —
// must reproduce the sequential model bit-for-bit.
func TestGoldenDeterminismParallel(t *testing.T) {
	if *updateGolden {
		t.Skip("fixture is written by TestGoldenDeterminism")
	}
	cfg := goldenConfig()
	cfg.Workers = 4
	got := computeGoldenWith(t, cfg)
	compareToFixture(t, got, filepath.Join("testdata", "golden.json"))
}

// compareToFixture checks a computed fixture against the committed one.
func compareToFixture(t *testing.T, got goldenFixture, path string) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture (regenerate with -update-golden): %v", err)
	}
	var want goldenFixture
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}

	if !floatClose(got.Threshold, want.Threshold) {
		t.Errorf("threshold = %.17g, fixture %.17g", got.Threshold, want.Threshold)
	}
	if !floatClose(got.TLow, want.TLow) {
		t.Errorf("tLow = %.17g, fixture %.17g", got.TLow, want.TLow)
	}
	if !floatClose(got.THigh, want.THigh) {
		t.Errorf("tHigh = %.17g, fixture %.17g", got.THigh, want.THigh)
	}
	compareLabels(t, "train", got.TrainLabels, want.TrainLabels)
	compareLabels(t, "query", got.QueryLabels, want.QueryLabels)
}

func compareLabels(t *testing.T, which string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s labels: %d results, fixture has %d", which, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s label %d = %d, fixture %d", which, i, got[i], want[i])
		}
	}
}

// floatClose tolerates only last-ulp-scale drift: the refactor is supposed
// to preserve the arithmetic, not merely approximate it.
func floatClose(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-12*scale
}
