package core

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func TestResolveBackend(t *testing.T) {
	cases := []struct {
		name string
		dim  int
		want string
	}{
		{"", 2, BackendTree},
		{"", 27, BackendSampling},
		{BackendAuto, AutoTreeMaxDim, BackendTree},
		{BackendAuto, AutoTreeMaxDim + 1, BackendSampling},
		{BackendTree, 27, BackendTree},
		{BackendSampling, 2, BackendSampling},
	}
	for _, tc := range cases {
		if got := resolveBackend(tc.name, tc.dim); got != tc.want {
			t.Errorf("resolveBackend(%q, %d) = %q, want %q", tc.name, tc.dim, got, tc.want)
		}
	}
}

func TestBackendValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	data := gauss2D(rng, 300)
	cfg := testConfig()
	cfg.Backend = "annoy"
	_, err := Train(data, cfg)
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	for _, name := range Backends() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list valid backend %q", err, name)
		}
	}
}

// TestBackendAccessor checks the classifier reports the backend it
// resolved, both implicit and forced.
func TestBackendAccessor(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	data := gauss2D(rng, 300)
	// Pin auto explicitly: this test asserts the resolution policy, so
	// it must not inherit a TKDC_TEST_BACKEND override.
	auto := testConfig()
	auto.Backend = BackendAuto
	c, err := Train(data, auto)
	if err != nil {
		t.Fatal(err)
	}
	if c.Backend() != BackendTree {
		t.Fatalf("d=2 auto backend = %q, want %q", c.Backend(), BackendTree)
	}
	cfg := testConfig()
	cfg.Backend = BackendSampling
	c, err = Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Backend() != BackendSampling {
		t.Fatalf("forced backend = %q, want %q", c.Backend(), BackendSampling)
	}
}

// TestForcedTreeBackendMatchesGolden pins the refactor's central
// guarantee: explicitly selecting the tree backend reproduces the
// committed golden fixture bit-for-bit, so extracting the DensityBackend
// interface changed no arithmetic on the certified path.
func TestForcedTreeBackendMatchesGolden(t *testing.T) {
	cfg := goldenConfig()
	cfg.Backend = BackendTree
	got := computeGoldenWith(t, cfg)
	compareToFixture(t, got, filepath.Join("testdata", "golden.json"))
}

// TestSamplingBoundsBracketHighDim is the property test for the
// near-first start (backend "sampling") in its home regime: on
// latent-structure data at d=27 every reported (Lower, Upper) must
// bracket the exact brute-force density.
func TestSamplingBoundsBracketHighDim(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	data := latentData(rng, 4000, 27, 5)
	// Pin auto explicitly so a TKDC_TEST_BACKEND=tree override cannot
	// redirect the property test away from the backend under test; at
	// d=27 auto must resolve to the near-first start.
	cfg := testConfig()
	cfg.Backend = BackendAuto
	c, err := Train(data, cfg)
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
