package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tkdc/internal/points"
)

// TestProbeThreshold checks the cheap drift probe is deterministic and
// lands in the neighborhood of the trained threshold — close enough that
// a relative-drift comparison against it is meaningful.
func TestProbeThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := make([][]float64, 2000)
	for i := range data {
		data[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	cfg := DefaultConfig()
	cfg.S0 = 2000
	clf, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := points.FromRows(data)
	if err != nil {
		t.Fatal(err)
	}

	p1, err := ProbeThreshold(store, cfg, 512, 256, 5)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ProbeThreshold(store, cfg, 512, 256, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("probe not deterministic: %v vs %v", p1, p2)
	}
	trained := clf.Threshold()
	if p1 <= 0 || p1 < trained/5 || p1 > trained*5 {
		t.Fatalf("probe %v too far from trained threshold %v", p1, trained)
	}

	if _, err := ProbeThreshold(points.New(0, 2), cfg, 10, 10, 1); err == nil {
		t.Fatal("probe over empty store succeeded")
	}
}

// TestProbeThresholdPinned pins the probe's answer bits for a fixed seed
// on three draws of refRows+probes rows out of 2 000: one sparse enough
// for points.SampleSlots' displaced-slot map (k < n/4), one on its index
// shuffle, and one that draws every row (k == n), at d = 3 so the probe
// runs the near-first start there. The probe's draw is one Intn(n−i) per
// row; any change to that stream, or to the rows it picks, moves these
// bits.
func TestProbeThresholdPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("constants recorded on amd64; other architectures may fuse multiply-adds and round differently")
	}
	for _, tc := range []struct {
		d, refRows, probes int
		want               uint64
	}{
		{2, 256, 128, 0x3eba5e955d567396},
		{2, 512, 256, 0x3f6c13b695e5958e},
		{3, 1500, 500, 0x3f0aba9e53283dd8},
	} {
		rng := rand.New(rand.NewSource(8))
		data := points.New(2000, tc.d)
		for i := range data.Data {
			data.Data[i] = rng.NormFloat64()
		}
		got, err := ProbeThreshold(data, DefaultConfig(), tc.refRows, tc.probes, 5)
		if err != nil {
			t.Fatal(err)
		}
		if bits := math.Float64bits(got); bits != tc.want {
			t.Errorf("d=%d refRows=%d probes=%d: probe %v (%#x), want %#x", tc.d, tc.refRows, tc.probes, got, bits, tc.want)
		}
	}
}
