package core

import (
	"math/rand"
	"testing"

	"tkdc/internal/telemetry"
)

// tracedClassifier trains a classifier with a registry + flight recorder
// attached, returning all three.
func tracedClassifier(t *testing.T, data [][]float64, mut func(*Config)) (*Classifier, *telemetry.Registry, *telemetry.FlightRecorder) {
	t.Helper()
	reg := telemetry.NewRegistry()
	flight := telemetry.NewFlightRecorder(telemetry.FlightOptions{K: 64})
	reg.AttachFlightRecorder(flight)
	cfg := testConfig()
	cfg.Recorder = reg
	if mut != nil {
		mut(&cfg)
	}
	c, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, reg, flight
}

// TestScoreTraceTreeBackend checks the full flight-record wiring on the
// certified tree traversal: every query files one trace whose identity
// fields, bounds, and per-stage breakdown describe the work done.
func TestScoreTraceTreeBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	data := gauss2D(rng, 1200)
	c, _, flight := tracedClassifier(t, data, func(cfg *Config) {
		cfg.DisableGrid = true // force traversal so every trace has stages
	})

	const queries = 40
	straddled := 0
	for i := 0; i < queries; i++ {
		q := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		r, err := c.Score(q)
		if err != nil {
			t.Fatal(err)
		}
		if r.Lower <= c.Threshold() && c.Threshold() <= r.Upper {
			straddled++
		}
	}

	snap := flight.Snapshot()
	if snap.Traced != queries {
		t.Fatalf("Traced = %d, want %d", snap.Traced, queries)
	}
	if int(snap.Straddled) != straddled {
		t.Fatalf("Straddled = %d, want %d (queries whose bounds contained t)", snap.Straddled, straddled)
	}
	if len(snap.Recent) != queries {
		t.Fatalf("Recent holds %d traces, want %d (K=64 > queries)", len(snap.Recent), queries)
	}
	for _, tr := range snap.Recent {
		if tr.Kind != "score" || tr.Backend != BackendTree {
			t.Fatalf("trace kind/backend = %q/%q, want score/tree", tr.Kind, tr.Backend)
		}
		if tr.Latency <= 0 {
			t.Fatalf("trace latency = %v, want > 0", tr.Latency)
		}
		if tr.Threshold != c.Threshold() {
			t.Fatalf("trace threshold = %g, want %g", tr.Threshold, c.Threshold())
		}
		if tr.Lower > tr.Upper {
			t.Fatalf("trace bounds inverted: [%g, %g]", tr.Lower, tr.Upper)
		}
		if tr.Margin != tr.Estimate-tr.Threshold {
			t.Fatalf("margin = %g, want estimate-threshold = %g", tr.Margin, tr.Estimate-tr.Threshold)
		}
		if tr.Label != Low.String() && tr.Label != High.String() {
			t.Fatalf("trace label = %q", tr.Label)
		}
		if len(tr.Query) != 2 {
			t.Fatalf("trace query has %d coords, want 2", len(tr.Query))
		}
		if len(tr.Stages) == 0 {
			t.Fatal("tree trace has no stages")
		}
		st := tr.Stages[0]
		if st.Name != "tree/refine" {
			t.Fatalf("stage name = %q, want tree/refine", st.Name)
		}
		// A query whose root bounds already clear the threshold pops zero
		// nodes; otherwise the stage and trace totals must agree.
		if st.Nodes != tr.Nodes {
			t.Fatalf("stage nodes = %d, trace nodes = %d; want equal", st.Nodes, tr.Nodes)
		}
		if st.Depth < 1 {
			t.Fatalf("stage depth = %d, want >= 1 (root level)", st.Depth)
		}
		if st.Bounds != tr.BoundKernels {
			t.Fatalf("stage bound kernels = %d, trace = %d", st.Bounds, tr.BoundKernels)
		}
	}
}

// TestScoreTraceSamplingBackend checks traces from the near-first start
// (backend "sampling"), which d = 27 data trains with: every trace shows
// the near phase and then the refinement loop that starts from its
// frontier, and the two stages' work sums to the trace's.
func TestScoreTraceSamplingBackend(t *testing.T) {
	const queries = 40
	rows := latentData(rand.New(rand.NewSource(73)), 1500+queries, 27, 5)
	c, _, flight := tracedClassifier(t, rows[:1500], nil)
	if c.Backend() != BackendSampling {
		t.Fatalf("d=27 backend = %q, want %q", c.Backend(), BackendSampling)
	}

	for _, q := range rows[1500:] {
		if _, err := c.Score(q); err != nil {
			t.Fatal(err)
		}
	}

	snap := flight.Snapshot()
	if snap.Traced != queries {
		t.Fatalf("Traced = %d, want %d", snap.Traced, queries)
	}
	for _, tr := range snap.Recent {
		if tr.Backend != BackendSampling {
			t.Fatalf("trace backend = %q, want sampling", tr.Backend)
		}
		names := make([]string, len(tr.Stages))
		var nodes, points, bounds int64
		for i, st := range tr.Stages {
			names[i] = st.Name
			nodes += st.Nodes
			points += st.Points
			bounds += st.Bounds
		}
		if len(names) != 2 || names[0] != "near" || names[1] != "far/refine" {
			t.Fatalf("stages %v, want [near far/refine]", names)
		}
		if nodes != tr.Nodes || points != tr.PointKernels || bounds != tr.BoundKernels {
			t.Fatalf("stage work %d/%d/%d != trace work %d/%d/%d (nodes/points/bounds)",
				nodes, points, bounds, tr.Nodes, tr.PointKernels, tr.BoundKernels)
		}
		if last := tr.Stages[1]; last.Lower != tr.Lower || last.Upper != tr.Upper {
			t.Fatalf("loop stage bounds [%g, %g], trace [%g, %g]", last.Lower, last.Upper, tr.Lower, tr.Upper)
		}
	}
}

// TestGridHitTrace checks the grid fast path leaves a minimal trace
// rather than escaping the recorder.
func TestGridHitTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	data := gauss2D(rng, 1500)
	c, _, flight := tracedClassifier(t, data, nil)

	// Dense-core training points make grid hits likely; find one.
	found := false
	for i := 0; i < 500 && !found; i++ {
		if _, err := c.Score(data[i]); err != nil {
			t.Fatal(err)
		}
		for _, tr := range flight.Snapshot().Recent {
			if tr.GridHit {
				found = true
				if tr.Backend != "grid" || tr.Label != High.String() || len(tr.Stages) != 0 {
					t.Fatalf("grid-hit trace malformed: backend=%q label=%q stages=%d",
						tr.Backend, tr.Label, len(tr.Stages))
				}
				break
			}
		}
	}
	if !found {
		t.Skip("no grid hit among 500 training-point queries (grid disabled for this dimension?)")
	}
}

// TestDensityBoundsTrace checks the density-query path (no threshold,
// no label) also files traces.
func TestDensityBoundsTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	data := gauss2D(rng, 1000)
	c, _, flight := tracedClassifier(t, data, nil)

	fl, fu, err := c.DensityBounds([]float64{0.5, -0.5}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	snap := flight.Snapshot()
	if snap.Traced != 1 {
		t.Fatalf("Traced = %d, want 1", snap.Traced)
	}
	tr := snap.Recent[0]
	if tr.Kind != "density" {
		t.Fatalf("trace kind = %q, want density", tr.Kind)
	}
	if tr.Lower != fl || tr.Upper != fu {
		t.Fatalf("trace bounds [%g, %g] disagree with returned [%g, %g]", tr.Lower, tr.Upper, fl, fu)
	}
	if tr.Straddle || tr.Label != "" {
		t.Fatalf("density trace carries classification fields: straddle=%v label=%q", tr.Straddle, tr.Label)
	}
	// The tree backend runs one refinement loop for both query kinds; a
	// density query must still file its stage as tree/estimate.
	if len(tr.Stages) != 1 || tr.Stages[0].Name != "tree/estimate" {
		t.Fatalf("tree density trace stages = %+v, want one tree/estimate stage", tr.Stages)
	}
}

// TestTraceDisabledLeavesNoTraces pins the gating: with the flight
// recorder switched off (or absent) queries classify identically and the
// recorder stays empty.
func TestTraceDisabledLeavesNoTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	data := gauss2D(rng, 1000)
	c, _, flight := tracedClassifier(t, data, nil)
	flight.SetEnabled(false)

	for i := 0; i < 20; i++ {
		if _, err := c.Score(data[i]); err != nil {
			t.Fatal(err)
		}
	}
	if snap := flight.Snapshot(); snap.Traced != 0 {
		t.Fatalf("disabled recorder filed %d traces", snap.Traced)
	}
	flight.SetEnabled(true)
	if _, err := c.Score(data[0]); err != nil {
		t.Fatal(err)
	}
	if snap := flight.Snapshot(); snap.Traced != 1 {
		t.Fatalf("re-enabled recorder filed %d traces, want 1", snap.Traced)
	}
}
