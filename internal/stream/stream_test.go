package stream

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tkdc/internal/core"
	"tkdc/internal/telemetry"
)

// gauss2D generates n rows of a 2-d Gaussian, optionally scaled.
func gauss2D(n int, seed int64, scale float64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{scale * rng.NormFloat64(), scale * rng.NormFloat64()}
	}
	return rows
}

// testConfig is a small, fast training configuration.
func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.S0 = 2000
	cfg.Seed = 42
	return cfg
}

func trainSmall(t *testing.T, rows [][]float64) *core.Classifier {
	t.Helper()
	clf, err := core.Train(rows, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

func TestReservoirFillPreservesOrder(t *testing.T) {
	ing, err := NewIngestor(10, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	if n, err := ing.Add(rows); err != nil || n != 3 {
		t.Fatalf("Add = (%d, %v), want (3, nil)", n, err)
	}
	snap, seen := ing.Snapshot()
	if seen != 3 || snap.Len() != 3 || snap.Dim != 2 {
		t.Fatalf("snapshot shape = %dx%d seen=%d, want 3x2 seen=3", snap.Len(), snap.Dim, seen)
	}
	for i, want := range rows {
		got := snap.Row(i)
		if got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("row %d = %v, want %v (fill phase must preserve arrival order)", i, got, want)
		}
	}
}

func TestReservoirDeterministicAndBounded(t *testing.T) {
	const capRows = 50
	a, _ := NewIngestor(capRows, 2, 7, false)
	b, _ := NewIngestor(capRows, 2, 7, false)
	rows := gauss2D(1000, 3, 1)
	for i := 0; i < len(rows); i += 100 {
		if _, err := a.Add(rows[i : i+100]); err != nil {
			t.Fatal(err)
		}
	}
	// Same rows, different batch boundaries: the sample depends only on
	// the row sequence and seed.
	if _, err := b.Add(rows); err != nil {
		t.Fatal(err)
	}
	sa, seenA := a.Snapshot()
	sb, seenB := b.Snapshot()
	if seenA != 1000 || seenB != 1000 {
		t.Fatalf("seen = %d, %d, want 1000", seenA, seenB)
	}
	if sa.Len() != capRows || sb.Len() != capRows {
		t.Fatalf("sample sizes = %d, %d, want %d", sa.Len(), sb.Len(), capRows)
	}
	for i := range sa.Data {
		if sa.Data[i] != sb.Data[i] {
			t.Fatalf("samples diverge at flat index %d: %v vs %v", i, sa.Data[i], sb.Data[i])
		}
	}
}

func TestWindowKeepsLatestInOrder(t *testing.T) {
	ing, _ := NewIngestor(4, 1, 0, true)
	for v := 1.0; v <= 10; v++ {
		if _, err := ing.Add([][]float64{{v}}); err != nil {
			t.Fatal(err)
		}
	}
	snap, seen := ing.Snapshot()
	if seen != 10 || snap.Len() != 4 {
		t.Fatalf("seen=%d len=%d, want 10, 4", seen, snap.Len())
	}
	for i, want := range []float64{7, 8, 9, 10} {
		if got := snap.At(i, 0); got != want {
			t.Fatalf("window row %d = %v, want %v (oldest to newest)", i, got, want)
		}
	}
}

func TestIngestRejectsBatchWhole(t *testing.T) {
	ing, _ := NewIngestor(10, 2, 0, false)
	bad := [][]float64{{1, 2}, {3, math.NaN()}}
	if n, err := ing.Add(bad); err == nil || n != 0 {
		t.Fatalf("Add(NaN batch) = (%d, %v), want (0, error)", n, err)
	}
	if ing.Len() != 0 || ing.Seen() != 0 {
		t.Fatalf("malformed batch mutated the sample: len=%d seen=%d", ing.Len(), ing.Seen())
	}
	if _, err := ing.Add([][]float64{{1, 2, 3}}); err == nil {
		t.Fatal("dimension-mismatch row accepted")
	}
}

// TestDeterminismBridge is the acceptance criterion: a static dataset
// fed through the Ingestor with reservoir ≥ n retrains to a model
// bit-identical to batch Train on the same rows.
func TestDeterminismBridge(t *testing.T) {
	rows := gauss2D(600, 11, 1)
	cfg := testConfig()

	batch, err := core.Train(rows, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The initial classifier is arbitrary (it gets swapped out); train it
	// on a different slice to prove the retrain owes it nothing.
	initial := trainSmall(t, gauss2D(300, 99, 2))
	svc, err := NewService(initial, Config{Capacity: 1000, Seed: cfg.Seed, Train: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(rows); i += 150 {
		if _, err := svc.Ingest(rows[i : i+150]); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Retrain(); err != nil {
		t.Fatal(err)
	}
	live := svc.Model().Current()

	if got, want := live.Threshold(), batch.Threshold(); got != want {
		t.Fatalf("threshold = %v, want bit-identical %v", got, want)
	}
	glo, ghi := live.ThresholdBounds()
	wlo, whi := batch.ThresholdBounds()
	if glo != wlo || ghi != whi {
		t.Fatalf("bounds = [%v, %v], want [%v, %v]", glo, ghi, wlo, whi)
	}
	if g, w := live.Bandwidths(), batch.Bandwidths(); g[0] != w[0] || g[1] != w[1] {
		t.Fatalf("bandwidths = %v, want %v", g, w)
	}
	probes := gauss2D(200, 23, 2)
	for i, q := range probes {
		gl, gu, err := live.DensityBounds(q, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		wl, wu, err := batch.DensityBounds(q, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if gl != wl || gu != wu {
			t.Fatalf("probe %d: density bounds (%v, %v) != batch (%v, %v)", i, gl, gu, wl, wu)
		}
		gLab, _ := live.Classify(q)
		wLab, _ := batch.Classify(q)
		if gLab != wLab {
			t.Fatalf("probe %d: label %v != batch %v", i, gLab, wLab)
		}
	}
	if gen := svc.Model().Generation(); gen != 2 {
		t.Fatalf("generation = %d, want 2 after one retrain", gen)
	}
}

func TestCountTrigger(t *testing.T) {
	initial := trainSmall(t, gauss2D(300, 5, 1))
	svc, err := NewService(initial, Config{Capacity: 1000, RetrainEvery: 100, Train: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest(gauss2D(99, 6, 1)); err != nil {
		t.Fatal(err)
	}
	if reason, err := svc.maybeRetrain(); reason != "" || err != nil {
		t.Fatalf("trigger below RetrainEvery = (%q, %v), want none", reason, err)
	}
	if _, err := svc.Ingest(gauss2D(1, 7, 1)); err != nil {
		t.Fatal(err)
	}
	reason, err := svc.maybeRetrain()
	if reason != "count" || err != nil {
		t.Fatalf("trigger = (%q, %v), want (count, nil)", reason, err)
	}
	if gen := svc.Model().Generation(); gen != 2 {
		t.Fatalf("generation = %d, want 2", gen)
	}
	// Pending resets: no further trigger without new rows.
	if reason, _ := svc.maybeRetrain(); reason != "" {
		t.Fatalf("trigger after retrain = %q, want none", reason)
	}
}

func TestAgeTriggerNeedsNewRows(t *testing.T) {
	initial := trainSmall(t, gauss2D(300, 5, 1))
	svc, err := NewService(initial, Config{Capacity: 1000, MaxModelAge: time.Nanosecond, Train: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	if reason, _ := svc.maybeRetrain(); reason != "" {
		t.Fatalf("age trigger with no new rows = %q, want none", reason)
	}
	if _, err := svc.Ingest(gauss2D(150, 6, 1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	if reason, err := svc.maybeRetrain(); reason != "age" || err != nil {
		t.Fatalf("trigger = (%q, %v), want (age, nil)", reason, err)
	}
}

func TestDriftTrigger(t *testing.T) {
	// Live model on unit-variance data; the stream switches to 6x the
	// spread, which moves t(p) by orders of magnitude in 2-d.
	initial := trainSmall(t, gauss2D(500, 5, 1))
	svc, err := NewService(initial, Config{Capacity: 1000, DriftTolerance: 0.5, Seed: 9, Train: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest(gauss2D(500, 8, 6)); err != nil {
		t.Fatal(err)
	}
	reason, err := svc.maybeRetrain()
	if reason != "drift" || err != nil {
		t.Fatalf("trigger = (%q, %v), want (drift, nil)", reason, err)
	}

	// Same-distribution stream: the probe should sit near the live
	// threshold and not fire.
	svc2, err := NewService(initial, Config{Capacity: 1000, DriftTolerance: 5, Seed: 9, Train: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc2.Ingest(gauss2D(500, 10, 1)); err != nil {
		t.Fatal(err)
	}
	if reason, _ := svc2.maybeRetrain(); reason != "" {
		t.Fatalf("stationary stream fired %q with a loose tolerance", reason)
	}
}

func TestPrefillSeedsSample(t *testing.T) {
	rows := gauss2D(400, 5, 1)
	initial := trainSmall(t, rows)
	svc, err := NewService(initial, Config{Capacity: 1000, Prefill: true, Train: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.SampleSize != 400 || st.Ingested != 400 {
		t.Fatalf("prefilled sample = %d/%d ingested, want 400/400", st.SampleSize, st.Ingested)
	}
	// Prefilled rows do not count as pending work.
	if reason, _ := svc.maybeRetrain(); reason != "" {
		t.Fatalf("prefill alone fired trigger %q", reason)
	}
	if _, err := svc.Ingest(gauss2D(50, 6, 1)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Retrain(); err != nil {
		t.Fatal(err)
	}
	if n := svc.Model().Current().N(); n != 450 {
		t.Fatalf("retrained on %d rows, want 450 (prefill + stream)", n)
	}
}

// TestRetrainInheritsBackend pins the lifecycle half of backend
// selection: a service built without an explicit Train config retrains
// with the initial model's configuration, so a forced density backend
// survives every hot swap.
func TestRetrainInheritsBackend(t *testing.T) {
	cfg := testConfig()
	cfg.Backend = core.BackendSampling // d=2 would auto-resolve to tree
	initial, err := core.Train(gauss2D(400, 5, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(initial, Config{Capacity: 1000, Prefill: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest(gauss2D(50, 6, 1)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Retrain(); err != nil {
		t.Fatal(err)
	}
	cur := svc.Model().Current()
	if cur == initial {
		t.Fatal("retrain did not swap the model")
	}
	if cur.Backend() != core.BackendSampling {
		t.Fatalf("retrained backend = %q, want inherited %q", cur.Backend(), core.BackendSampling)
	}
}

func TestSnapshotOnSwapAndClose(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.tkdc")
	initial := trainSmall(t, gauss2D(300, 5, 1))
	svc, err := NewService(initial, Config{Capacity: 1000, SnapshotPath: path, Train: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest(gauss2D(400, 6, 1)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Retrain(); err != nil {
		t.Fatal(err)
	}
	assertLoadable := func() {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		loaded, err := core.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := loaded.Threshold(), svc.Model().Current().Threshold(); got != want {
			t.Fatalf("snapshot threshold = %v, want live %v", got, want)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temp file left behind: %v", err)
		}
	}
	assertLoadable()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	assertLoadable()
}

func TestBackgroundRetrainer(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := testConfig()
	cfg.Recorder = reg
	initial := trainSmall(t, gauss2D(300, 5, 1))
	svc, err := NewService(initial, Config{
		Capacity:      2000,
		RetrainEvery:  200,
		CheckInterval: 5 * time.Millisecond,
		Train:         cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Close()

	if _, err := svc.Ingest(gauss2D(500, 6, 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Model().Generation() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("background retrainer never fired: %+v", svc.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := svc.Stats()
	if st.Retrains < 1 || st.ModelN == 0 {
		t.Fatalf("stats after retrain = %+v", st)
	}
	// The retrain shows up as a phase span in the registry.
	found := false
	for _, sp := range reg.Snapshot().Spans {
		if len(sp.Name) >= 7 && sp.Name[:7] == "retrain" {
			found = true
			if sp.Items == 0 || sp.Kernels == 0 {
				t.Fatalf("retrain span carries no work: %+v", sp)
			}
		}
	}
	if !found {
		t.Fatal("no retrain/gen-N span recorded")
	}
}

func TestRetrainOnEmptySample(t *testing.T) {
	initial := trainSmall(t, gauss2D(300, 5, 1))
	svc, err := NewService(initial, Config{Capacity: 100, Train: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Retrain(); err == nil {
		t.Fatal("Retrain on empty sample succeeded; want error")
	}
	if gen := svc.Model().Generation(); gen != 1 {
		t.Fatalf("generation moved to %d on failed retrain", gen)
	}
}

// TestRetrainObservability pins the lifecycle stats added for the flight
// recorder era: Pending tracks rows since the last retrain, the retrain
// reason and duration survive into Stats, and drift probes report their
// score and count.
func TestRetrainObservability(t *testing.T) {
	initial := trainSmall(t, gauss2D(300, 5, 1))
	svc, err := NewService(initial, Config{Capacity: 1000, RetrainEvery: 100, Train: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Pending != 0 || st.LastRetrainReason != "" || st.DriftProbes != 0 {
		t.Fatalf("fresh service stats not zeroed: %+v", st)
	}
	if _, err := svc.Ingest(gauss2D(40, 6, 1)); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Pending != 40 {
		t.Fatalf("Pending = %d after 40 rows, want 40", st.Pending)
	}
	if err := svc.Retrain(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Pending != 0 {
		t.Fatalf("Pending = %d after retrain, want 0", st.Pending)
	}
	if st.LastRetrainReason != "manual" {
		t.Fatalf("LastRetrainReason = %q, want manual", st.LastRetrainReason)
	}
	if st.LastRetrainDuration <= 0 {
		t.Fatalf("LastRetrainDuration = %v, want > 0", st.LastRetrainDuration)
	}

	// A count-triggered retrain overwrites the reason.
	if _, err := svc.Ingest(gauss2D(100, 7, 1)); err != nil {
		t.Fatal(err)
	}
	if reason, err := svc.maybeRetrain(); reason != "count" || err != nil {
		t.Fatalf("trigger = (%q, %v), want (count, nil)", reason, err)
	}
	if st := svc.Stats(); st.LastRetrainReason != "count" {
		t.Fatalf("LastRetrainReason = %q, want count", st.LastRetrainReason)
	}
}

// TestDriftProbeStats checks the drift gauge: a probe that fires records
// a score past the tolerance and increments the probe counter.
func TestDriftProbeStats(t *testing.T) {
	initial := trainSmall(t, gauss2D(500, 5, 1))
	svc, err := NewService(initial, Config{Capacity: 1000, DriftTolerance: 0.5, Seed: 9, Train: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest(gauss2D(500, 8, 6)); err != nil {
		t.Fatal(err)
	}
	if reason, err := svc.maybeRetrain(); reason != "drift" || err != nil {
		t.Fatalf("trigger = (%q, %v), want (drift, nil)", reason, err)
	}
	st := svc.Stats()
	if st.DriftProbes != 1 {
		t.Fatalf("DriftProbes = %d, want 1", st.DriftProbes)
	}
	if st.DriftScore <= 0.5 {
		t.Fatalf("DriftScore = %g, want > tolerance 0.5 (the probe fired)", st.DriftScore)
	}
	if st.LastRetrainReason != "drift" {
		t.Fatalf("LastRetrainReason = %q, want drift", st.LastRetrainReason)
	}
}

// TestHandleMetricsMatchDirect is the telemetry-parity regression test:
// the same queries produce identical work metrics whether they go
// straight at the Classifier or through a Model handle — the handle adds
// one atomic load and must not touch, duplicate, or drop any sample.
// Latency histograms are excluded (wall-clock differs by definition).
func TestHandleMetricsMatchDirect(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := testConfig()
	cfg.Recorder = reg
	clf, err := core.Train(gauss2D(600, 5, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := gauss2D(200, 11, 2)

	workFields := func(s telemetry.Snapshot) []int64 {
		return []int64{
			s.Queries, s.GridHits, s.GridMisses,
			s.Kernels.Count(), s.Kernels.Sum,
			s.Nodes.Count(), s.Nodes.Sum,
		}
	}

	reg.Reset()
	for _, q := range queries {
		if _, err := clf.Score(q); err != nil {
			t.Fatal(err)
		}
	}
	direct := workFields(reg.Snapshot())

	reg.Reset()
	model := NewModel(clf)
	for _, q := range queries {
		if _, err := model.Score(q); err != nil {
			t.Fatal(err)
		}
	}
	handle := workFields(reg.Snapshot())

	for i := range direct {
		if direct[i] != handle[i] {
			t.Fatalf("work metric %d differs: direct %d vs handle %d\ndirect %v\nhandle %v",
				i, direct[i], handle[i], direct, handle)
		}
	}
}
