package tkdc_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tkdc"
)

// mixture draws from a two-mode 2-d distribution with a sparse satellite.
func mixture(rng *rand.Rand, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		if rng.Float64() < 0.9 {
			pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		} else {
			pts[i] = []float64{6 + rng.NormFloat64()*0.5, 6 + rng.NormFloat64()*0.5}
		}
	}
	return pts
}

func TestPublicAPIEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := mixture(rng, 2000)
	cfg := tkdc.DefaultConfig()
	cfg.S0 = 2000
	clf, err := tkdc.Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clf.Threshold() <= 0 {
		t.Fatalf("threshold = %g, want positive", clf.Threshold())
	}
	center, err := clf.Classify([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if center != tkdc.High {
		t.Fatalf("dense center classified %v", center)
	}
	far, err := clf.Classify([]float64{30, -30})
	if err != nil {
		t.Fatal(err)
	}
	if far != tkdc.Low {
		t.Fatalf("distant outlier classified %v", far)
	}
	labels, err := clf.ClassifyAll([][]float64{{0, 0}, {30, -30}})
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != tkdc.High || labels[1] != tkdc.Low {
		t.Fatalf("batch labels = %v", labels)
	}
	fl, fu, err := clf.DensityBounds([]float64{0, 0}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if fl <= 0 || fu < fl {
		t.Fatalf("density bounds [%g, %g] invalid", fl, fu)
	}
}

func TestTrainDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := mixture(rng, 800)
	clf, err := tkdc.TrainDefault(data)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := clf.ThresholdBounds()
	if !(lo <= clf.Threshold() && clf.Threshold() <= hi) && !math.IsInf(hi, 1) {
		t.Fatalf("threshold %g outside its own bounds [%g, %g]", clf.Threshold(), lo, hi)
	}
	ts := clf.TrainStats()
	if ts.N != 800 || ts.Dim != 2 {
		t.Fatalf("train stats: %+v", ts)
	}
}

func ExampleTrain() {
	// Train on a small deterministic grid of points clustered at the
	// origin plus one distant straggler.
	rng := rand.New(rand.NewSource(7))
	data := make([][]float64, 0, 501)
	for i := 0; i < 500; i++ {
		data = append(data, []float64{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5})
	}
	data = append(data, []float64{25, 25})

	cfg := tkdc.DefaultConfig()
	cfg.S0 = 500
	clf, err := tkdc.Train(data, cfg)
	if err != nil {
		panic(err)
	}
	center, _ := clf.Classify([]float64{0, 0})
	straggler, _ := clf.Classify([]float64{25, 25})
	fmt.Println("center:", center)
	fmt.Println("straggler:", straggler)
	// Output:
	// center: HIGH
	// straggler: LOW
}

func TestSaveLoadThroughFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := mixture(rng, 600)
	cfg := tkdc.DefaultConfig()
	cfg.S0 = 600
	clf, err := tkdc.Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := tkdc.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Threshold() != clf.Threshold() {
		t.Fatalf("threshold drifted across save/load: %g vs %g", loaded.Threshold(), clf.Threshold())
	}
	a, _ := clf.Classify([]float64{0, 0})
	b, _ := loaded.Classify([]float64{0, 0})
	if a != b {
		t.Fatal("loaded model classifies differently")
	}
}
