// Contours reproduces the Figure 2a scenario: probability-density contour
// bands over iris-like sepal measurements, using the levelset package. A
// quantile ladder trains one classifier per density level; stacking the
// rasterized classifications yields the nested bands a biologist would
// read as region boundaries between flower populations, and marching
// squares extracts the actual contour polyline of the outermost level.
package main

import (
	"fmt"
	"log"

	"tkdc"
	"tkdc/internal/dataset"
	"tkdc/levelset"
)

func main() {
	data := dataset.Iris2D(30000, 3)

	// One classifier per contour level: each t(p) is a density level set.
	levels := []float64{0.05, 0.25, 0.50, 0.75}
	cfg := tkdc.DefaultConfig()
	cfg.Seed = 3
	ladder, err := levelset.TrainLadder(data, levels, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range ladder.Levels() {
		fmt.Printf("density level t(%.2f) = %.4g\n", p, ladder.Thresholds()[i])
	}

	// Rasterize each level with the batch sweep and stack the masks: a
	// point's band is the number of level sets containing it.
	window := levelset.Window{
		XMin: 1.8, XMax: 4.6, // sepal width
		YMin: 4.0, YMax: 8.2, // sepal length
		W: 64, H: 24,
	}
	glyphs := []byte{'.', ':', '+', '#', '@'}
	bands := make([][]int, window.H)
	for j := range bands {
		bands[j] = make([]int, window.W)
	}
	for i := range levels {
		mask, err := levelset.ClassifyWindow(ladder.Classifier(i), window)
		if err != nil {
			log.Fatal(err)
		}
		for j := 0; j < window.H; j++ {
			for x := 0; x < window.W; x++ {
				if mask[j][x] {
					bands[j][x]++
				}
			}
		}
	}

	fmt.Println("\nsepal width (x) vs sepal length (y) density contours:")
	for j := window.H - 1; j >= 0; j-- {
		line := make([]byte, window.W)
		for x := 0; x < window.W; x++ {
			line[x] = glyphs[bands[j][x]]
		}
		fmt.Println(string(line))
	}
	fmt.Println("\nlegend: '.' sparsest band … '@' densest band; each boundary is a contour of the KDE")
	fmt.Println("the two dense blobs are the setosa mode (upper left) and the overlapping versicolor/virginica mode")

	// Extract the outermost contour as a polyline (what a plotting
	// library would draw as the region boundary).
	segs, err := levelset.Contour(ladder.Classifier(0), levelset.Window{
		XMin: 1.8, XMax: 4.6, YMin: 4.0, YMax: 8.2, W: 96, H: 96,
	}, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmarching-squares boundary of the p=0.05 level set: %d segments\n", len(segs))
	for _, s := range segs[:3] {
		fmt.Printf("  (%.2f, %.2f) — (%.2f, %.2f)\n", s.X1, s.Y1, s.X2, s.Y2)
	}
	fmt.Println("  ...")
}
