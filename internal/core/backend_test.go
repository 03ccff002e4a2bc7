package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"tkdc/internal/dataset"
)

// TestResolveBackend pins where the cut lies: the tree start answers
// d ≤ 2, where its root bounds decide what the near phase would sum, and
// the near-first start every d from 3 up.
func TestResolveBackend(t *testing.T) {
	cases := []struct {
		dim  int
		want string
	}{
		{1, BackendTree},
		{2, BackendTree},
		{3, BackendSampling},
		{8, BackendSampling},
		{27, BackendSampling},
	}
	for _, tc := range cases {
		if got := resolveBackend(tc.dim); got != tc.want {
			t.Errorf("resolveBackend(%d) = %q, want %q", tc.dim, got, tc.want)
		}
	}
}

// TestBackendAccessor checks a trained classifier reports, serves and
// tags the start its data's dimension picked.
func TestBackendAccessor(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, tc := range []struct {
		name, want string
		data       [][]float64
	}{
		{"d=2", BackendTree, gauss2D(rng, 300)},
		{"d=3", BackendSampling, latentData(rng, 300, 3, 2)},
		{"d=8", BackendSampling, dataset.TMY3(300, 81)},
	} {
		c, err := Train(tc.data, testConfig())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c.Backend() != tc.want {
			t.Errorf("%s: backend = %q, want %q", tc.name, c.Backend(), tc.want)
		}
		e := c.getEstimator()
		if got := e.Name(); got != tc.want {
			t.Errorf("%s: serving backend = %q, want %q", tc.name, got, tc.want)
		}
		c.putEstimator(e)
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var snap modelSnapshot
		if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		if snap.Backend != tc.want {
			t.Errorf("%s: snapshot tag = %q, want %q", tc.name, snap.Backend, tc.want)
		}
	}
}

// TestTrainIgnoresBackendField pins the start contract: the data's
// dimension picks where Algorithm 2 starts, whatever the deprecated
// Config.Backend says, and the snapshot records "auto" there, so a
// training with the field set encodes to the same bytes as one without.
func TestTrainIgnoresBackendField(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, tc := range []struct {
		name, field, want string
		data              [][]float64
	}{
		{"d=2", BackendSampling, BackendTree, gauss2D(rng, 600)},
		{"d=27", BackendTree, BackendSampling, latentData(rng, 600, 27, 5)},
	} {
		encode := func(cfg Config) ([]byte, string) {
			c, err := Train(tc.data, cfg)
			if err != nil {
				t.Fatalf("%s: Train with Backend %q: %v", tc.name, cfg.Backend, err)
			}
			b, _, err := c.EncodeSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			return b, c.Backend()
		}
		set := testConfig()
		set.Backend = tc.field
		got, start := encode(set)
		if start != tc.want {
			t.Errorf("%s: Backend %q trained the %q start, want %q", tc.name, tc.field, start, tc.want)
		}
		if want, _ := encode(testConfig()); !bytes.Equal(got, want) {
			t.Errorf("%s: Backend %q encodes to %d bytes that differ from the default training's %d", tc.name, tc.field, len(got), len(want))
		}
	}
}

// TestSamplingBoundsBracketHighDim is the property test for the
// near-first start (backend "sampling") in its home regime: on
// latent-structure data at d=27 every reported (Lower, Upper) must
// bracket the exact brute-force density.
func TestSamplingBoundsBracketHighDim(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	data := latentData(rng, 4000, 27, 5)
	c, err := Train(data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Backend() != BackendSampling {
		t.Fatalf("d=27 resolved to %q, want %q", c.Backend(), BackendSampling)
	}

	queries := latentData(rng, 150, 27, 5)
	queries = append(queries, data[:150]...)
	misses := 0
	for i, q := range queries {
		res, err := c.Score(q)
		if err != nil {
			t.Fatal(err)
		}
		f := exactDensity(c.data, c.kern, q)
		// Queries resolved completely return an exact interval that
		// differs from the flat-order reference only by summation
		// order; tolerate that rounding at the interval ends.
		if !brackets(res.Lower, res.Upper, f) {
			misses++
		}
		if res.Density < res.Lower || res.Density > res.Upper {
			t.Fatalf("query %d: density %v outside [%v, %v]", i, res.Density, res.Lower, res.Upper)
		}
	}
	if misses > 0 {
		t.Fatalf("bounds missed the exact density %d/%d times", misses, len(queries))
	}
}
