package bench

import (
	"bytes"
	"strings"
	"testing"

	"tkdc/internal/core"
	"tkdc/internal/dataset"
	"tkdc/internal/points"
)

// tinyOpts keeps experiments test-sized.
func tinyOpts() Options {
	return Options{Scale: 0.0005, MaxQueries: 200, Seed: 1}
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalized()
	if o.Scale <= 0 || o.MaxQueries <= 0 || o.Out == nil {
		t.Fatalf("normalized options incomplete: %+v", o)
	}
	if got := o.scaled(1_000_000, 500); got != 10_000 {
		t.Fatalf("scaled = %d, want 10000", got)
	}
	if got := o.scaled(100, 500); got != 100 {
		t.Fatalf("scaled must cap at n: got %d", got)
	}
	if got := o.scaled(10_000, 500); got != 500 {
		t.Fatalf("scaled must respect floor: got %d", got)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Title: "T", Columns: []string{"a", "bb"}, Notes: []string{"n1"}}
	tbl.AddRow("1", "2")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== T ==", "a", "bb", "1", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestMeasurementMath(t *testing.T) {
	m := Measurement{N: 1000, TrainSeconds: 1, QueriesMeasured: 100, QuerySeconds: 1}
	// per-query 10ms ⇒ full pass 10s ⇒ effective = 1000/11.
	if got := m.EffectiveThroughput(); got < 90 || got > 92 {
		t.Fatalf("EffectiveThroughput = %v, want ≈90.9", got)
	}
	if got := m.QueryThroughput(); got != 100 {
		t.Fatalf("QueryThroughput = %v, want 100", got)
	}
	var zero Measurement
	if zero.EffectiveThroughput() != 0 || zero.QueryThroughput() != 0 {
		t.Fatal("zero measurement should report zero throughput")
	}
}

func TestMeasureTKDCAndBaselines(t *testing.T) {
	data := dataset.Gauss(3000, 2, 1)
	m, err := MeasureTKDC(data, tkdcConfigForTest(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if m.QueriesMeasured != 100 || m.EffectiveThroughput() <= 0 {
		t.Fatalf("tkdc measurement bad: %+v", m)
	}
	for _, kind := range []BaselineKind{Simple, NoCut, RKDE, Binned} {
		bm, err := MeasureBaseline(kind, data, BaselineParams{}, 50)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if bm.QueriesMeasured != 50 || bm.QueryThroughput() <= 0 {
			t.Fatalf("%s measurement bad: %+v", kind, bm)
		}
		if kind == Simple && bm.KernelsPerQuery != float64(len(data)) {
			t.Fatalf("simple kernels/q = %v, want n", bm.KernelsPerQuery)
		}
	}
	if _, err := NewBaseline("bogus", data, BaselineParams{}); err == nil {
		t.Fatal("unknown baseline should error")
	}
}

func TestRunRegistry(t *testing.T) {
	if _, err := Run("nope", tinyOpts()); err == nil {
		t.Fatal("unknown experiment should error")
	}
	exps := Experiments()
	ids := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Description == "" || e.Run == nil {
			t.Fatalf("incomplete experiment entry: %+v", e)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"tab2", "tab3", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"} {
		if !ids[want] {
			t.Fatalf("registry missing %s", want)
		}
	}
}

func TestTablesRun(t *testing.T) {
	var buf bytes.Buffer
	opts := tinyOpts()
	opts.Out = &buf
	for _, id := range []string{"tab2", "tab3"} {
		tables, err := Run(id, opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) != 1 || len(tables[0].Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
	if !strings.Contains(buf.String(), "Table 2") || !strings.Contains(buf.String(), "Table 3") {
		t.Fatal("tables not printed to Out")
	}
}

// TestFig8AccuracyF1 is the acceptance check for the Figure 8
// reproduction at test scale: tkdc must be nearly perfect, and the binned
// (ks-style) estimator must trail it at d=4.
func TestFig8AccuracyF1(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy experiment skipped in -short mode")
	}
	data, err := dataset.TakeColumns(dataset.TMY3(4000, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := points.FromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	truth, threshold, err := exactGroundTruth(pts, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if threshold <= 0 {
		t.Fatalf("ground-truth threshold = %g", threshold)
	}
	f1, err := tkdcAccuracy(data, 0.01, 1, truth)
	if err != nil {
		t.Fatal(err)
	}
	if f1 < 0.95 {
		t.Fatalf("tkdc F1 = %.3f, want ≥ 0.95 (paper: ~0.995)", f1)
	}
}

// TestFig9Shape runs the core scalability claim at test scale: tkdc's
// per-query kernel work must grow much more slowly than the baselines'.
func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling experiment skipped in -short mode")
	}
	opts := tinyOpts()
	opts.Scale = 0.0003 // up to 30k on the 100M paper size
	tables, err := Figure9(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) < 2 {
		t.Fatalf("fig9 rows: %+v", tables)
	}
}

func TestFactorAnalysesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("factor experiments skipped in -short mode")
	}
	opts := tinyOpts()
	for name, run := range map[string]func(Options) ([]Table, error){"fig12": Figure12, "fig16": Figure16} {
		tables, err := run(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tables[0].Rows) != 5 {
			t.Fatalf("%s: %d rows, want 5", name, len(tables[0].Rows))
		}
	}
}

func tkdcConfigForTest() core.Config {
	cfg := core.DefaultConfig()
	cfg.S0 = 1000
	cfg.Seed = 1
	return cfg
}
