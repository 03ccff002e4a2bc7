package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"testing"

	"tkdc/internal/points"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	data := gauss2D(rng, 1500)
	cfg := testConfig()
	orig, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.Threshold() != orig.Threshold() {
		t.Fatalf("threshold changed: %g vs %g", loaded.Threshold(), orig.Threshold())
	}
	lo1, hi1 := orig.ThresholdBounds()
	lo2, hi2 := loaded.ThresholdBounds()
	if lo1 != lo2 || hi1 != hi2 {
		t.Fatal("threshold bounds changed")
	}
	if loaded.N() != orig.N() || loaded.Dim() != orig.Dim() {
		t.Fatal("shape changed")
	}
	if loaded.TrainStats().BootstrapRounds != orig.TrainStats().BootstrapRounds {
		t.Fatal("train stats not preserved")
	}

	// Every query must classify identically — the index rebuild is
	// deterministic and the threshold is persisted exactly.
	for trial := 0; trial < 300; trial++ {
		q := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		a, err := orig.Score(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Score(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Label != b.Label || a.Lower != b.Lower || a.Upper != b.Upper {
			t.Fatalf("query %v: original %+v, loaded %+v", q, a, b)
		}
	}
}

func TestSaveLoadPreservesGridState(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	data := gauss2D(rng, 800)

	// With grid.
	withGrid, err := Train(data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := withGrid.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.grid == nil {
		t.Fatal("grid not rebuilt on load")
	}

	// Without grid.
	cfg := testConfig()
	cfg.DisableGrid = true
	noGrid, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := noGrid.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err = Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.grid != nil {
		t.Fatal("grid rebuilt despite DisableGrid")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("garbage input should error")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Fatal("empty input should error")
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	data := gauss2D(rng, 300)
	c, err := Train(data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if modelVersion != 3 {
		t.Fatalf("update TestLoadRejectsWrongVersion for version %d", modelVersion)
	}
	if _, err := Load(&buf); err != nil {
		t.Fatal(err)
	}

	// A snapshot from a future (unknown) format version must be rejected.
	future := modelSnapshot{
		Version: modelVersion + 1,
		Config:  testConfig(),
		Flat:    []float64{1, 2},
		Dim:     2,
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&future); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "unsupported model version") {
		t.Fatalf("future version error = %v, want unsupported-version", err)
	}
}

// TestSaveLoadParallelBitIdentical trains the same data sequentially and
// with Workers=4, and checks the two models — and a save/load round trip
// of the parallel one (Load rebuilds the index and grid through the same
// parallel path) — agree on every score bit-for-bit.
func TestSaveLoadParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	data := gauss2D(rng, 1500)
	seq, err := Train(data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Workers = 4
	par, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Threshold() != par.Threshold() {
		t.Fatalf("threshold: sequential %.17g, parallel %.17g", seq.Threshold(), par.Threshold())
	}

	var buf bytes.Buffer
	if err := par.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.TrainStats().Workers; got != 4 {
		t.Fatalf("loaded TrainStats.Workers = %d, want 4", got)
	}
	for trial := 0; trial < 200; trial++ {
		q := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		a, err := seq.Score(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Score(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Label != b.Label || a.Lower != b.Lower || a.Upper != b.Upper {
			t.Fatalf("query %d: sequential %+v, parallel-loaded %+v", trial, a, b)
		}
	}
}

// TestSnapshotBytesReproducible trains the same store, config and seed
// twice: both models must encode to the same snapshot bytes, so a
// snapshot's SHA-256 names the model rather than how long its training
// phases took. Save zeroes the phase durations in the snapshot only; the
// live model keeps its timings.
func TestSnapshotBytesReproducible(t *testing.T) {
	store, err := points.FromRows(gauss2D(rand.New(rand.NewSource(71)), 3000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Workers = 2
	var snaps [2][]byte
	for run := range snaps {
		c, err := TrainStore(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if snaps[run], _, err = c.EncodeSnapshot(); err != nil {
			t.Fatal(err)
		}
		if c.TrainStats().Phases[0].Duration <= 0 {
			t.Fatal("encoding zeroed the live model's phase durations")
		}
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("two trainings encoded to different snapshots (%d and %d bytes)", len(snaps[0]), len(snaps[1]))
	}
	loaded, err := Load(bytes.NewReader(snaps[0]))
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range loaded.TrainStats().Phases {
		if sp.Duration != 0 || sp.Name == "" || sp.Items == 0 {
			t.Fatalf("loaded phase %+v: want a name and items but no duration", sp)
		}
	}
}
