package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// tinySnapshot trains a 30-row d=2 model and returns its bare-gob
// snapshot after edit (nil for none) has changed the decoded form. The
// model is kept small so fuzz inputs built from it stay near 1 KB.
func tinySnapshot(t testing.TB, edit func(*modelSnapshot)) []byte {
	t.Helper()
	c, err := Train(gauss2D(rand.New(rand.NewSource(7)), 30), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if edit == nil {
		return buf.Bytes()
	}
	var snap modelSnapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	edit(&snap)
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// invalidSnapshot is a well-formed snapshot whose model cannot give
// finite answers or cannot be evaluated at all, with the text Load's
// error must carry.
type invalidSnapshot struct {
	name, want string
	data       []byte
}

// invalidSnapshots returns a bandwidth factor so small that 1/h²
// overflows (the box bounds then compute 0·Inf = NaN), an infinite
// threshold (every query LOW), a NaN growth factor (a retrain from the
// loaded config panics on a negative sample size), kernel family 1,
// which earlier releases trained as an Epanechnikov kernel and which
// would otherwise load as a Gaussian model, and a start tag no release
// wrote.
func invalidSnapshots(t testing.TB) []invalidSnapshot {
	return []invalidSnapshot{
		{"bandwidth factor 1e-300", "1/h² overflows",
			tinySnapshot(t, func(s *modelSnapshot) { s.Config.BandwidthFactor = 1e-300 })},
		{"threshold +Inf", "threshold +Inf is not finite",
			tinySnapshot(t, func(s *modelSnapshot) { s.Threshold = math.Inf(1) })},
		{"HGrowth NaN", "HGrowth = NaN must be finite",
			tinySnapshot(t, func(s *modelSnapshot) { s.Config.HGrowth = math.NaN() })},
		{"kernel family 1", "unknown kernel family 1",
			tinySnapshot(t, func(s *modelSnapshot) { s.Config.Kernel = 1 })},
		{"backend tag annoy", `unknown backend "annoy"`,
			tinySnapshot(t, func(s *modelSnapshot) { s.Backend = "annoy" })},
	}
}

// TestLoadRejectsNonFiniteModels: every snapshot used to load. The
// first then scored density NaN with label LOW, and the last answered
// with an Epanechnikov kernel.
func TestLoadRejectsNonFiniteModels(t *testing.T) {
	for _, s := range invalidSnapshots(t) {
		c, err := Load(bytes.NewReader(s.data))
		if err == nil {
			r, _ := c.Score(c.TrainingData().Row(0))
			t.Errorf("%s: Load accepted it; a training row scores density %v, label %v", s.name, r.Density, r.Label)
			continue
		}
		if !strings.Contains(err.Error(), s.want) {
			t.Errorf("%s: error %q, want it to mention %q", s.name, err, s.want)
		}
	}
}

// FuzzLoad feeds Load arbitrary bytes, as a follower decoding a leader's
// snapshot would. Load must never panic, and any model it accepts must
// score a training row with a finite density.
func FuzzLoad(f *testing.F) {
	bare := tinySnapshot(f, nil)
	c, err := Load(bytes.NewReader(bare))
	if err != nil {
		f.Fatal(err)
	}
	framed, _, err := c.EncodeSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bare)
	f.Add(framed)
	f.Add(framed[:frameHdrLen+len(framed[frameHdrLen:])/2])
	for _, s := range invalidSnapshots(f) {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		r, err := c.Score(c.TrainingData().Row(0))
		if err != nil {
			t.Fatalf("loaded model rejects its own training row: %v", err)
		}
		if math.IsNaN(r.Density) || math.IsInf(r.Density, 0) {
			t.Fatalf("loaded model scores a training row with density %v", r.Density)
		}
	})
}
