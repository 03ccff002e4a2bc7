package core

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"tkdc/internal/telemetry"
)

// TestRecorderReceivesQuerySamples checks the full wiring: a classifier
// built with a registry recorder feeds it one sample per query, and the
// registry's work histograms agree with the classifier's own counters.
func TestRecorderReceivesQuerySamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := gauss2D(rng, 1500)
	reg := telemetry.NewRegistry()
	cfg := testConfig()
	cfg.Recorder = reg
	c, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg.Reset() // drop the training spans; measure queries only

	const queries = 300
	for i := 0; i < queries; i++ {
		q := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		if _, err := c.Score(q); err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	if snap.Queries != queries {
		t.Fatalf("registry queries = %d, want %d", snap.Queries, queries)
	}
	if got := snap.LatencyNS.Count(); got != queries {
		t.Fatalf("latency histogram count = %d, want %d", got, queries)
	}
	if got := snap.Kernels.Count(); got != queries {
		t.Fatalf("kernels histogram count = %d, want %d", got, queries)
	}
	st := c.Stats()
	if snap.Kernels.Sum != st.Kernels() {
		t.Fatalf("kernels histogram sum = %d, want Stats().Kernels() = %d", snap.Kernels.Sum, st.Kernels())
	}
	if snap.Nodes.Sum != st.NodesVisited {
		t.Fatalf("nodes histogram sum = %d, want Stats().NodesVisited = %d", snap.Nodes.Sum, st.NodesVisited)
	}
	if snap.GridHits != st.GridHits {
		t.Fatalf("registry grid hits = %d, want Stats().GridHits = %d", snap.GridHits, st.GridHits)
	}
	if snap.GridHits+snap.GridMisses != queries {
		t.Fatalf("grid hits+misses = %d, want %d (grid enabled: every query checks)", snap.GridHits+snap.GridMisses, queries)
	}
	gh, gm := c.GridCounters()
	if gh != snap.GridHits || gm != snap.GridMisses {
		t.Fatalf("GridCounters() = (%d, %d), want (%d, %d)", gh, gm, snap.GridHits, snap.GridMisses)
	}
	if snap.LatencyNS.Sum <= 0 {
		t.Fatal("latency histogram sum should be positive")
	}
}

// TestTrainPhasesAccountForAllKernels pins the phase-trace invariant:
// the bootstrap-round and refine-pass span kernel counts sum exactly to
// TrainStats.TrainKernels, and the trace names follow the documented
// shapes.
func TestTrainPhasesAccountForAllKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := gauss2D(rng, 1500)
	c, err := Train(data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := c.TrainStats()
	if len(ts.Phases) == 0 {
		t.Fatal("TrainStats.Phases is empty")
	}
	var kernels int64
	var rounds, refines, assembles int
	for _, sp := range ts.Phases {
		kernels += sp.Kernels
		switch {
		case strings.HasPrefix(sp.Name, "bootstrap/round-"):
			rounds++
		case strings.HasPrefix(sp.Name, "refine/pass-"):
			refines++
		case sp.Name == "assemble":
			assembles++
			if sp.Kernels != 0 {
				t.Errorf("assemble span counts %d kernels, want 0", sp.Kernels)
			}
			if sp.Items != int64(len(data)) {
				t.Errorf("assemble span items = %d, want %d", sp.Items, len(data))
			}
		default:
			t.Errorf("unexpected phase name %q", sp.Name)
		}
	}
	if kernels != ts.TrainKernels {
		t.Fatalf("phase kernel sum = %d, want TrainKernels = %d", kernels, ts.TrainKernels)
	}
	if rounds != ts.BootstrapRounds {
		t.Fatalf("bootstrap round spans = %d, want BootstrapRounds = %d", rounds, ts.BootstrapRounds)
	}
	if assembles != 1 {
		t.Fatalf("assemble spans = %d, want 1", assembles)
	}
	if refines < 1 {
		t.Fatal("no refine/pass spans recorded")
	}
}

// TestTrainingBitExactWithRecorder is the telemetry-off purity check:
// attaching a recorder must not perturb training — same threshold, same
// bounds, same labels.
func TestTrainingBitExactWithRecorder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	data := gauss2D(rng, 1500)

	plain, err := Train(data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Recorder = telemetry.NewRegistry()
	traced, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if plain.Threshold() != traced.Threshold() {
		t.Fatalf("threshold differs with recorder: %g vs %g", plain.Threshold(), traced.Threshold())
	}
	pl, ph := plain.ThresholdBounds()
	tl, th := traced.ThresholdBounds()
	if pl != tl || ph != th {
		t.Fatalf("threshold bounds differ: [%g, %g] vs [%g, %g]", pl, ph, tl, th)
	}
	for i := 0; i < 200; i++ {
		q := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		a, err := plain.Classify(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := traced.Classify(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("query %d: label differs with recorder: %v vs %v", i, a, b)
		}
	}
}

// TestSetRecorderOnLoadedModel checks the Save/Load telemetry story: the
// recorder never persists, a loaded model starts with telemetry off, and
// SetRecorder attaches a live registry that then sees queries.
func TestSetRecorderOnLoadedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	data := gauss2D(rng, 1200)
	cfg := testConfig()
	cfg.Recorder = telemetry.NewRegistry()
	c, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatalf("save with recorder attached: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Score([]float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	if snap := loaded.Snapshot(); snap.Queries != 0 {
		t.Fatalf("loaded model recorded %d queries before SetRecorder; telemetry should be off", snap.Queries)
	}
	// Phases persist as model state even though the recorder does not.
	if len(loaded.TrainStats().Phases) == 0 {
		t.Fatal("loaded model lost TrainStats.Phases")
	}

	reg := telemetry.NewRegistry()
	loaded.SetRecorder(reg)
	const queries = 50
	for i := 0; i < queries; i++ {
		if _, err := loaded.Score([]float64{rng.NormFloat64(), rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Snapshot().Queries; got != queries {
		t.Fatalf("registry saw %d queries after SetRecorder, want %d", got, queries)
	}
	loaded.SetRecorder(nil) // nil restores the no-op
	if _, err := loaded.Score([]float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Queries; got != queries {
		t.Fatalf("detached registry still receives samples: %d queries", got)
	}
}

// TestSnapshotWithoutRecorder checks that Snapshot degrades to a zero
// value instead of panicking when no registry is attached.
func TestSnapshotWithoutRecorder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c, err := Train(gauss2D(rng, 800), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Score([]float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap.Queries != 0 || snap.LatencyNS.Count() != 0 {
		t.Fatalf("no-op recorder produced a non-zero snapshot: %+v", snap)
	}
}

// TestStatsCoherentUnderConcurrency is the torn-snapshot regression test
// (run with -race): queries hammer the classifier while a reader
// continuously snapshots Stats. With the grid disabled every committed
// query performed at least the root's two bound kernels, so any coherent
// snapshot satisfies BoundKernels >= 2*Queries; the old split-atomic
// implementation could expose a query counted before its work.
func TestStatsCoherentUnderConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	data := gauss2D(rng, 1200)
	cfg := testConfig()
	cfg.DisableGrid = true
	c, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := c.Stats() // training-pass work is already committed

	const writers = 4
	const queriesPer = 400
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < queriesPer; i++ {
				q := []float64{r.NormFloat64() * 3, r.NormFloat64() * 3}
				if _, err := c.Score(q); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	go func() { wg.Wait(); close(done) }()

	var prev Counters
	for {
		select {
		case <-done:
			final := c.Stats()
			if got := final.Queries - base.Queries; got != writers*queriesPer {
				t.Fatalf("final Queries delta = %d, want %d", got, writers*queriesPer)
			}
			return
		default:
			s := c.Stats()
			if s.BoundKernels-base.BoundKernels < 2*(s.Queries-base.Queries) {
				t.Fatalf("torn snapshot: %d queries committed with only %d bound kernels",
					s.Queries-base.Queries, s.BoundKernels-base.BoundKernels)
			}
			if s.Queries < prev.Queries || s.BoundKernels < prev.BoundKernels ||
				s.PointKernels < prev.PointKernels || s.NodesVisited < prev.NodesVisited {
				t.Fatalf("counters went backwards: %+v after %+v", s, prev)
			}
			prev = s
		}
	}
}
