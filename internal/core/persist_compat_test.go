package core

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var updateV1 = flag.Bool("update-persist-v1", false, "rewrite the v1 snapshot fixture from the current implementation (only meaningful while Save still emits format v1)")

// persistDataset is a fixed small dataset for snapshot-compatibility
// fixtures; independent of the code under test.
func persistDataset() [][]float64 {
	rng := rand.New(rand.NewSource(99))
	data := make([][]float64, 0, 300)
	for i := 0; i < 300; i++ {
		if i < 280 {
			data = append(data, []float64{rng.NormFloat64(), rng.NormFloat64() * 2})
		} else {
			data = append(data, []float64{rng.Float64()*30 - 15, rng.Float64()*30 - 15})
		}
	}
	return data
}

func persistConfig() Config {
	cfg := DefaultConfig()
	cfg.P = 0.05
	cfg.Seed = 99
	return cfg
}

type persistFixture struct {
	Threshold float64 `json:"threshold"`
	Labels    []int   `json:"labels"`
}

func classifyAllLabels(t *testing.T, clf *Classifier, data [][]float64) []int {
	t.Helper()
	labels := make([]int, len(data))
	for i, x := range data {
		l, err := clf.Classify(x)
		if err != nil {
			t.Fatalf("Classify: %v", err)
		}
		labels[i] = int(l)
	}
	return labels
}

// TestPersistV1Compat loads a checked-in format-v1 gob snapshot (written
// by the pre-flat-storage implementation) and verifies the loaded
// classifier reproduces the recorded threshold and labels exactly. This
// pins backward compatibility of Load across snapshot format revisions.
func TestPersistV1Compat(t *testing.T) {
	gobPath := filepath.Join("testdata", "model_v1.gob")
	jsonPath := filepath.Join("testdata", "model_v1.json")
	data := persistDataset()

	if *updateV1 {
		clf, err := Train(data, persistConfig())
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		var buf bytes.Buffer
		if err := clf.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(gobPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		fix := persistFixture{Threshold: clf.Threshold(), Labels: classifyAllLabels(t, clf, data)}
		blob, err := json.MarshalIndent(fix, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s and %s", gobPath, jsonPath)
		return
	}

	raw, err := os.ReadFile(gobPath)
	if err != nil {
		t.Fatalf("read v1 fixture: %v", err)
	}
	clf, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Load v1 snapshot: %v", err)
	}
	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var want persistFixture
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if clf.Threshold() != want.Threshold {
		t.Errorf("threshold = %.17g, fixture %.17g", clf.Threshold(), want.Threshold)
	}
	got := classifyAllLabels(t, clf, data)
	compareLabels(t, "v1", got, want.Labels)
}

// TestPersistV2Compat decodes a format-v2 snapshot — the flat-buffer
// layout without a backend tag — synthesized from a freshly trained
// model. Load must accept it and resolve the backend from the dimension
// policy, exactly as pre-backend releases behaved.
func TestPersistV2Compat(t *testing.T) {
	data := persistDataset()
	clf, err := Train(data, persistConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}

	// The v2 writer's struct: every field of today's snapshot that
	// existed in format v2, and nothing else. Gob matches by field name,
	// so this encodes a byte stream indistinguishable from a real v2
	// artifact.
	type modelSnapshotV2 struct {
		Version   int
		Config    Config
		Flat      []float64
		Dim       int
		Threshold float64
		TLow      float64
		THigh     float64
		Train     TrainStats
	}
	cfg := clf.cfg
	cfg.Recorder = nil
	cfg.Backend = "" // the field postdates v2
	snap := modelSnapshotV2{
		Version:   2,
		Config:    cfg,
		Flat:      clf.data.Data,
		Dim:       clf.data.Dim,
		Threshold: clf.threshold,
		TLow:      clf.tLow,
		THigh:     clf.tHigh,
		Train:     clf.train,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load v2 snapshot: %v", err)
	}
	if loaded.Threshold() != clf.Threshold() {
		t.Errorf("v2 threshold = %.17g, want %.17g", loaded.Threshold(), clf.Threshold())
	}
	if loaded.Backend() != BackendTree {
		t.Errorf("v2 snapshot (d=2) resolved backend %q, want %q", loaded.Backend(), BackendTree)
	}
	compareLabels(t, "v2", classifyAllLabels(t, loaded, data), classifyAllLabels(t, clf, data))
}

// TestPersistV3BackendPinned checks the v3 start tag overrides the
// dimension on Load and survives a further save/load: a d=2 snapshot
// that an older release trained with the near-first start forced comes
// back on that start, not the tree, and re-encodes to its own bytes.
func TestPersistV3BackendPinned(t *testing.T) {
	raw := tinySnapshot(t, func(s *modelSnapshot) {
		s.Backend = BackendSampling
		s.Config.Backend = BackendSampling
	})
	loaded, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Backend() != BackendSampling {
		t.Errorf("loaded backend = %q, want pinned %q", loaded.Backend(), BackendSampling)
	}
	// The loaded config keeps what the snapshot recorded, so a save/load
	// chain neither loses the pin nor changes the bytes.
	if loaded.Config().Backend != BackendSampling {
		t.Errorf("loaded config backend = %q, want %q", loaded.Config().Backend, BackendSampling)
	}
	var buf bytes.Buffer
	if err := loaded.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Errorf("re-saved snapshot differs: %d bytes, loaded from %d", buf.Len(), len(raw))
	}
}

// TestAutoSnapshotReencodesIdentically: a loaded auto model re-encodes
// to the bytes it was loaded from, so a follower advertises its leader's
// SHA-256, and it still runs the engine the snapshot recorded. Load used
// to write the resolved engine into Config.Backend, which changed the
// bytes.
func TestAutoSnapshotReencodesIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		name string
		data [][]float64
		want string
	}{
		{"d=2", gauss2D(rng, 600), BackendTree},
		{"d=27", latentData(rng, 600, 27, 5), BackendSampling},
	} {
		cfg := testConfig()
		cfg.Backend = BackendAuto
		clf, err := Train(tc.data, cfg)
		if err != nil {
			t.Fatalf("%s: Train: %v", tc.name, err)
		}
		first, _, err := clf.EncodeSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("%s: Load: %v", tc.name, err)
		}
		second, _, err := loaded.EncodeSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: re-encoded snapshot differs: %d bytes, then %d", tc.name, len(first), len(second))
		}
		if clf.Backend() != tc.want || loaded.Backend() != tc.want {
			t.Errorf("%s: backend trained %q, loaded %q, want %q", tc.name, clf.Backend(), loaded.Backend(), tc.want)
		}
	}
}

// TestPersistRoundTrip saves a freshly trained classifier in the current
// snapshot format and verifies the loaded copy classifies identically.
func TestPersistRoundTrip(t *testing.T) {
	data := persistDataset()
	clf, err := Train(data, persistConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Threshold() != clf.Threshold() {
		t.Errorf("round-trip threshold = %.17g, want %.17g", loaded.Threshold(), clf.Threshold())
	}
	if loaded.N() != clf.N() || loaded.Dim() != clf.Dim() {
		t.Errorf("round-trip N/Dim = %d/%d, want %d/%d", loaded.N(), loaded.Dim(), clf.N(), clf.Dim())
	}
	want := classifyAllLabels(t, clf, data)
	got := classifyAllLabels(t, loaded, data)
	compareLabels(t, "round-trip", got, want)
}
