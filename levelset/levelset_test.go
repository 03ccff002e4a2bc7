package levelset

import (
	"math"
	"math/rand"
	"testing"

	"tkdc"
)

// gaussData draws points from an isotropic 2-d standard normal, whose
// level sets are circles — easy to verify geometrically.
func gaussData(rng *rand.Rand, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	return pts
}

func testCfg() tkdc.Config {
	cfg := tkdc.DefaultConfig()
	cfg.S0 = 2000
	cfg.Seed = 5
	return cfg
}

func TestTrainLadderValidation(t *testing.T) {
	data := gaussData(rand.New(rand.NewSource(1)), 300)
	if _, err := TrainLadder(data, nil, testCfg()); err == nil {
		t.Error("no levels should error")
	}
	if _, err := TrainLadder(data, []float64{0.5, 0.1}, testCfg()); err == nil {
		t.Error("unsorted levels should error")
	}
	if _, err := TrainLadder(data, []float64{0.1, 0.1}, testCfg()); err == nil {
		t.Error("duplicate levels should error")
	}
	if _, err := TrainLadder(data, []float64{0, 0.5}, testCfg()); err == nil {
		t.Error("p=0 should error")
	}
	if _, err := TrainLadder(data, []float64{0.5, 1}, testCfg()); err == nil {
		t.Error("p=1 should error")
	}
}

func TestLadderThresholdsNested(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := gaussData(rng, 3000)
	levels := []float64{0.05, 0.25, 0.5, 0.75}
	l, err := TrainLadder(data, levels, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	ths := l.Thresholds()
	for i := 1; i < len(ths); i++ {
		if ths[i] <= ths[i-1] {
			t.Fatalf("thresholds not increasing: %v", ths)
		}
	}
	if len(l.Levels()) != 4 || l.Classifier(0) == nil {
		t.Fatal("accessors broken")
	}
}

func TestBracketMatchesGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := gaussData(rng, 5000)
	l, err := TrainLadder(data, []float64{0.05, 0.25, 0.5, 0.75}, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The origin is the densest point: quantile near 1.
	lo, hi, err := l.Bracket([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0.75 || hi != 1 {
		t.Fatalf("origin bracket = (%v, %v], want (0.75, 1]", lo, hi)
	}
	// A far tail point: quantile near 0.
	lo, hi, err = l.Bracket([]float64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 || hi != 0.05 {
		t.Fatalf("tail bracket = (%v, %v], want (0, 0.05]", lo, hi)
	}
	// Brackets are consistent with the standard normal's radial quantile:
	// a point at radius r has density quantile P(R > r)... monotone in r,
	// so brackets must be monotone non-increasing with radius.
	prevHi := 1.0
	for _, r := range []float64{0.2, 1.0, 1.8, 2.6, 3.4} {
		_, hi, err := l.Bracket([]float64{r, 0})
		if err != nil {
			t.Fatal(err)
		}
		if hi > prevHi {
			t.Fatalf("bracket hi increased with radius at r=%v: %v > %v", r, hi, prevHi)
		}
		prevHi = hi
	}
}

func TestPValueAtMost(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := gaussData(rng, 3000)
	l, err := TrainLadder(data, []float64{0.01, 0.1}, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Far outlier is significant at alpha = 0.01.
	sig, err := l.PValueAtMost([]float64{10, 10}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !sig {
		t.Fatal("distant outlier should be significant at 0.01")
	}
	// The mode is not significant at alpha = 0.1.
	sig, err = l.PValueAtMost([]float64{0, 0}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if sig {
		t.Fatal("the mode should not be significant")
	}
	// No usable level below alpha.
	if _, err := l.PValueAtMost([]float64{0, 0}, 0.001); err == nil {
		t.Fatal("alpha below the smallest level should error")
	}
}

func TestClassifyWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := gaussData(rng, 4000)
	clf, err := tkdc.Train(data, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	w := Window{XMin: -5, XMax: 5, YMin: -5, YMax: 5, W: 41, H: 41}
	for _, workers := range []int{0, 2} {
		clf.SetWorkers(workers)
		mask, err := ClassifyWindow(clf, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(mask) != 41 || len(mask[0]) != 41 {
			t.Fatalf("mask shape %dx%d", len(mask), len(mask[0]))
		}
		if !mask[20][20] {
			t.Fatal("window center (the mode) should be HIGH")
		}
		if mask[0][0] || mask[40][40] {
			t.Fatal("window corners (radius ~7σ) should be LOW")
		}
		// Every cell carries exactly Score's label, the ε band included.
		for j := range mask {
			for i := range mask[j] {
				r, err := clf.Score([]float64{w.X(i), w.Y(j)})
				if err != nil {
					t.Fatal(err)
				}
				if mask[j][i] != (r.Label == tkdc.High) {
					t.Fatalf("workers=%d cell (%d,%d): mask %v, Score %v", workers, i, j, mask[j][i], r.Label)
				}
			}
		}
	}
}

func TestClassifyWindowValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := gaussData(rng, 500)
	clf, err := tkdc.Train(data, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ClassifyWindow(clf, Window{W: 1, H: 5, XMax: 1, YMax: 1}); err == nil {
		t.Error("1-wide window should error")
	}
	if _, err := ClassifyWindow(clf, Window{W: 5, H: 5, XMin: 1, XMax: 1, YMax: 1}); err == nil {
		t.Error("degenerate extent should error")
	}
	// 3-d classifier rejected.
	data3 := make([][]float64, 300)
	for i := range data3 {
		data3[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	clf3, err := tkdc.Train(data3, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ClassifyWindow(clf3, Window{W: 5, H: 5, XMax: 1, YMax: 1}); err == nil {
		t.Error("3-d classifier should error")
	}
}

// TestContourIsACircle: for an isotropic gaussian, the decision boundary
// is a circle; every contour segment endpoint must sit at (nearly) the
// same radius.
func TestContourIsACircle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := gaussData(rng, 6000)
	clf, err := tkdc.Train(data, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	w := Window{XMin: -5, XMax: 5, YMin: -5, YMax: 5, W: 81, H: 81}
	segs, err := Contour(clf, w, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 20 {
		t.Fatalf("only %d contour segments; expected a full circle", len(segs))
	}
	var radii []float64
	for _, s := range segs {
		radii = append(radii, math.Hypot(s.X1, s.Y1), math.Hypot(s.X2, s.Y2))
	}
	mean := 0.0
	for _, r := range radii {
		mean += r
	}
	mean /= float64(len(radii))
	if mean < 1.5 || mean > 4.5 {
		t.Fatalf("contour radius %v implausible for a p=0.01 gaussian level set", mean)
	}
	for _, r := range radii {
		if math.Abs(r-mean) > 0.35*mean {
			t.Fatalf("contour not circular: radius %v vs mean %v", r, mean)
		}
	}
}

func TestContourAtValidation(t *testing.T) {
	w := Window{XMin: 0, XMax: 1, YMin: 0, YMax: 1, W: 3, H: 3}
	good := [][]float64{{0, 0, 0}, {0, 1, 0}, {0, 0, 0}}
	if _, err := ContourAt(good, w, math.NaN()); err == nil {
		t.Error("NaN level should error")
	}
	if _, err := ContourAt(good[:2], w, 0.5); err == nil {
		t.Error("wrong height should error")
	}
	bad := [][]float64{{0, 0}, {0, 1, 0}, {0, 0, 0}}
	if _, err := ContourAt(bad, w, 0.5); err == nil {
		t.Error("ragged field should error")
	}
}

// TestContourAtSinglePeak: a field with one interior peak must produce a
// closed loop around it (4 segments at 3x3 resolution).
func TestContourAtSinglePeak(t *testing.T) {
	w := Window{XMin: 0, XMax: 2, YMin: 0, YMax: 2, W: 3, H: 3}
	field := [][]float64{
		{0, 0, 0},
		{0, 1, 0},
		{0, 0, 0},
	}
	segs, err := ContourAt(field, w, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 4 {
		t.Fatalf("single peak at level 0.5 should yield 4 segments, got %d: %v", len(segs), segs)
	}
	// All segment endpoints must lie strictly inside the window and at
	// interpolated positions (0.5 or 1.5 on some axis).
	for _, s := range segs {
		for _, v := range []float64{s.X1, s.Y1, s.X2, s.Y2} {
			if v < 0 || v > 2 {
				t.Fatalf("segment endpoint %v outside window", s)
			}
		}
	}
}

func TestContourAtFlatFieldIsEmpty(t *testing.T) {
	w := Window{XMin: 0, XMax: 1, YMin: 0, YMax: 1, W: 4, H: 4}
	field := make([][]float64, 4)
	for j := range field {
		field[j] = []float64{3, 3, 3, 3}
	}
	segs, err := ContourAt(field, w, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Fatalf("uniform field above level should have no contours, got %d", len(segs))
	}
}

func TestDensityWindowMatchesClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := gaussData(rng, 2000)
	clf, err := tkdc.Train(data, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	w := Window{XMin: -4, XMax: 4, YMin: -4, YMax: 4, W: 17, H: 17}
	field, err := DensityWindow(clf, w, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	mask, err := ClassifyWindow(clf, w)
	if err != nil {
		t.Fatal(err)
	}
	thr := clf.Threshold()
	for j := range field {
		for i := range field[j] {
			// Away from the ε band, the density field and the mask must
			// agree about which side of the threshold each cell is on.
			if math.Abs(field[j][i]-thr) < 0.2*thr {
				continue
			}
			if (field[j][i] > thr) != mask[j][i] {
				t.Fatalf("cell (%d,%d): density %g vs threshold %g disagrees with mask %v",
					i, j, field[j][i], thr, mask[j][i])
			}
		}
	}
}
