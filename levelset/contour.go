package levelset

import (
	"errors"
	"fmt"
	"math"

	"tkdc"
)

// Window is a 2-d axis-aligned evaluation window with raster resolution.
type Window struct {
	XMin, XMax float64
	YMin, YMax float64
	// W and H are the number of sample columns and rows (≥ 2 each).
	W, H int
}

func (w Window) validate() error {
	switch {
	case w.W < 2 || w.H < 2:
		return fmt.Errorf("levelset: window resolution %dx%d must be at least 2x2", w.W, w.H)
	case !(w.XMax > w.XMin) || !(w.YMax > w.YMin):
		return fmt.Errorf("levelset: degenerate window [%v,%v]x[%v,%v]", w.XMin, w.XMax, w.YMin, w.YMax)
	}
	return nil
}

// X returns the x coordinate of sample column i.
func (w Window) X(i int) float64 {
	return w.XMin + (w.XMax-w.XMin)*float64(i)/float64(w.W-1)
}

// Y returns the y coordinate of sample row j.
func (w Window) Y(j int) float64 {
	return w.YMin + (w.YMax-w.YMin)*float64(j)/float64(w.H-1)
}

// ClassifyWindow rasterizes HIGH/LOW classifications over the window
// with Classifier.ClassifyAll, the per-query sweep across
// Config.Workers goroutines, so every cell carries exactly the label
// Score gives its point. mask[j][i] is true where the density exceeds
// the classifier's threshold. The classifier must be 2-dimensional.
func ClassifyWindow(clf *tkdc.Classifier, w Window) ([][]bool, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	if clf.Dim() != 2 {
		return nil, fmt.Errorf("levelset: contour extraction needs a 2-d classifier, got d=%d", clf.Dim())
	}
	queries := make([][]float64, 0, w.W*w.H)
	for j := 0; j < w.H; j++ {
		for i := 0; i < w.W; i++ {
			queries = append(queries, []float64{w.X(i), w.Y(j)})
		}
	}
	labels, err := clf.ClassifyAll(queries)
	if err != nil {
		return nil, err
	}
	mask := make([][]bool, w.H)
	for j := 0; j < w.H; j++ {
		row := make([]bool, w.W)
		for i := 0; i < w.W; i++ {
			row[i] = labels[j*w.W+i] == tkdc.High
		}
		mask[j] = row
	}
	return mask, nil
}

// DensityWindow rasterizes density estimates over the window to relative
// precision rel (passed to Classifier.DensityBounds). Use it with
// ContourAt for smooth, interpolated contour lines.
func DensityWindow(clf *tkdc.Classifier, w Window, rel float64) ([][]float64, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	if clf.Dim() != 2 {
		return nil, fmt.Errorf("levelset: contour extraction needs a 2-d classifier, got d=%d", clf.Dim())
	}
	field := make([][]float64, w.H)
	for j := 0; j < w.H; j++ {
		row := make([]float64, w.W)
		for i := 0; i < w.W; i++ {
			fl, fu, err := clf.DensityBounds([]float64{w.X(i), w.Y(j)}, rel)
			if err != nil {
				return nil, err
			}
			row[i] = 0.5 * (fl + fu)
		}
		field[j] = row
	}
	return field, nil
}

// Segment is one straight piece of a contour polyline.
type Segment struct {
	X1, Y1 float64
	X2, Y2 float64
}

// ContourAt extracts the level-set curve field = level from a rasterized
// density field using marching squares with linear interpolation. The
// field must be a w.H × w.W raster as produced by DensityWindow.
func ContourAt(field [][]float64, w Window, level float64) ([]Segment, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	if len(field) != w.H {
		return nil, errors.New("levelset: field height does not match window")
	}
	for _, row := range field {
		if len(row) != w.W {
			return nil, errors.New("levelset: field width does not match window")
		}
	}
	if math.IsNaN(level) {
		return nil, errors.New("levelset: NaN contour level")
	}

	var segs []Segment
	// interp returns the crossing position between raster samples a and b
	// (at coordinates ca < cb) where the field hits the level.
	interp := func(a, b, ca, cb float64) float64 {
		if a == b {
			return 0.5 * (ca + cb)
		}
		t := (level - a) / (b - a)
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
		return ca + t*(cb-ca)
	}

	for j := 0; j < w.H-1; j++ {
		for i := 0; i < w.W-1; i++ {
			// Cell corners (counter-clockwise from bottom-left):
			// v0=(i,j) v1=(i+1,j) v2=(i+1,j+1) v3=(i,j+1).
			v0, v1 := field[j][i], field[j][i+1]
			v2, v3 := field[j+1][i+1], field[j+1][i]
			idx := 0
			if v0 > level {
				idx |= 1
			}
			if v1 > level {
				idx |= 2
			}
			if v2 > level {
				idx |= 4
			}
			if v3 > level {
				idx |= 8
			}
			if idx == 0 || idx == 15 {
				continue
			}

			x0, x1 := w.X(i), w.X(i+1)
			y0, y1 := w.Y(j), w.Y(j+1)
			// Edge crossing points (bottom, right, top, left).
			bottom := func() (float64, float64) { return interp(v0, v1, x0, x1), y0 }
			right := func() (float64, float64) { return x1, interp(v1, v2, y0, y1) }
			top := func() (float64, float64) { return interp(v3, v2, x0, x1), y1 }
			left := func() (float64, float64) { return x0, interp(v0, v3, y0, y1) }

			add := func(p1, p2 func() (float64, float64)) {
				ax, ay := p1()
				bx, by := p2()
				segs = append(segs, Segment{ax, ay, bx, by})
			}
			switch idx {
			case 1, 14:
				add(left, bottom)
			case 2, 13:
				add(bottom, right)
			case 3, 12:
				add(left, right)
			case 4, 11:
				add(right, top)
			case 6, 9:
				add(bottom, top)
			case 7, 8:
				add(left, top)
			case 5: // saddle: v0 and v2 high
				add(left, bottom)
				add(right, top)
			case 10: // saddle: v1 and v3 high
				add(bottom, right)
				add(left, top)
			}
		}
	}
	return segs, nil
}

// Contour runs DensityWindow + ContourAt at the classifier's own
// threshold: the decision boundary of the density classification task,
// i.e. exactly the curve Figure 1b colors.
func Contour(clf *tkdc.Classifier, w Window, rel float64) ([]Segment, error) {
	field, err := DensityWindow(clf, w, rel)
	if err != nil {
		return nil, err
	}
	return ContourAt(field, w, clf.Threshold())
}
