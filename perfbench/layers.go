package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"tkdc/internal/core"
	"tkdc/internal/grid"
	"tkdc/internal/kdtree"
)

// endToEnd lists the metrics of an untraced run, printed on every
// workload. BENCHMARK.json lists the same names and units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_us", "us"},
	{"rows_per_s", "rows/s"},
	{"heap_mb", "MB"},
}

// perLayer lists the metrics of a traced run, printed on every workload;
// a layer the workload bypasses reads 0. BENCHMARK.json lists the same
// names and units.
var perLayer = []struct{ name, unit string }{
	{"server.handler_us", "us"},
	{"server.self_us", "us"},
	{"server.transport_us", "us"},
	{"server.allocs_per_req", "count"},
	{"server.ingest_handler_us", "us"},
	{"stream.classify_us", "us"},
	{"stream.ingest_us", "us"},
	{"stream.retrain_s", "s"},
	{"stream.snapshot_ms", "ms"},
	{"core.bootstrap_s", "s"},
	{"core.assemble_s", "s"},
	{"core.refine_s", "s"},
	{"core.train_kernels", "count"},
	{"core.grid_hit_ratio", "ratio"},
	{"core.nodes_per_row", "count"},
	{"core.kernels_per_row", "count"},
	{"core.dualtree_group_share", "ratio"},
	{"core.encode_ms", "ms"},
	{"core.load_ms", "ms"},
	{"core.snapshot_bytes", "bytes"},
	{"kdtree.build_ms", "ms"},
	{"grid.build_ms", "ms"},
	{"estimator.samples_per_row", "count"},
	{"estimator.rounds_per_row", "count"},
	{"fleet.publish_ms", "ms"},
	{"fleet.sync_ms", "ms"},
	{"fleet.transfer_ms", "ms"},
	{"fleet.failed", "count"},
	{"runtime.gc_per_1k_req", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"cycle.refresh_s", "s"},
	{"cycle.ingest_rows_per_s", "rows/s"},
	{"host.factor", "ratio"},
	{"trace.latency_overhead_pct", "%"},
	{"trace.rows_overhead_pct", "%"},
}

// layerValues gathers a traced run's per-layer numbers with a note on
// what each was measured over.
type layerValues struct {
	v    map[string]float64
	note map[string]string
}

func newLayerValues() *layerValues {
	return &layerValues{v: map[string]float64{}, note: map[string]string{}}
}

func (l *layerValues) set(name string, v float64, format string, args ...any) {
	l.v[name] = v
	l.note[name] = fmt.Sprintf(format, args...)
}

// emit adds every per-layer metric to the report in list order.
func (l *layerValues) emit(rep *report) {
	for _, m := range perLayer {
		note, ok := l.note[m.name]
		if !ok {
			note = "(layer not on this workload's path)"
		}
		rep.add(m.name, l.v[m.name], m.unit, note)
	}
}

// trainPhases splits a model's training trace into Algorithm 3's
// bootstrap rounds, index and grid assembly, and the refinement passes.
func trainPhases(ts core.TrainStats) (bootstrap, assemble, refine time.Duration) {
	for _, p := range ts.Phases {
		switch {
		case strings.HasPrefix(p.Name, "bootstrap/"):
			bootstrap += p.Duration
		case p.Name == "assemble":
			assemble += p.Duration
		case strings.HasPrefix(p.Name, "refine/"):
			refine += p.Duration
		}
	}
	return bootstrap, assemble, refine
}

// setTraining reports the training phases as medians over the given
// models' traces, and the first model's kernel count.
func (l *layerValues) setTraining(models []core.TrainStats, what string) {
	var b, a, r []float64
	for _, ts := range models {
		bs, as, rs := trainPhases(ts)
		b, a, r = append(b, seconds(bs)), append(a, seconds(as)), append(r, seconds(rs))
	}
	note := fmt.Sprintf("median over %d %s", len(models), what)
	l.set("core.bootstrap_s", median(b), "%s", note)
	l.set("core.assemble_s", median(a), "%s", note)
	l.set("core.refine_s", median(r), "%s", note)
	l.set("core.train_kernels", float64(models[0].TrainKernels), "set-up model")
}

// setWork reports per-row work from query counters summed over whole
// passes.
func (l *layerValues) setWork(c core.Counters, what string) {
	if c.Queries == 0 {
		return
	}
	q := float64(c.Queries)
	note := fmt.Sprintf("%d rows, %s", c.Queries, what)
	l.set("core.grid_hit_ratio", float64(c.GridHits)/q, "%s", note)
	l.set("core.nodes_per_row", float64(c.NodesVisited)/q, "%s", note)
	l.set("core.kernels_per_row", float64(c.Kernels())/q, "%s", note)
	l.set("estimator.samples_per_row", float64(c.SampledPoints)/q, "%s", note)
	l.set("estimator.rounds_per_row", float64(c.SamplingRounds)/q, "%s", note)
}

// replayBuilds repeats the model's index builds, snapshot encode and
// snapshot load on its own rows and bytes. The replays run on copies;
// the served model is untouched.
func (l *layerValues) replayBuilds(clf *core.Classifier, replays int) error {
	data, cfg := clf.TrainingData(), clf.Config()
	var kd, gr, enc, ld []float64
	var size int
	for range replays {
		start := time.Now()
		if _, err := kdtree.Build(data, kdtree.Options{LeafSize: cfg.LeafSize, Split: cfg.Split, Workers: cfg.Workers}); err != nil {
			return fmt.Errorf("replay kdtree.Build: %w", err)
		}
		kd = append(kd, millis(time.Since(start)))
		if clf.TrainStats().GridEnabled {
			start = time.Now()
			if _, err := grid.NewWorkers(data, clf.Bandwidths(), cfg.Workers); err != nil {
				return fmt.Errorf("replay grid.NewWorkers: %w", err)
			}
			gr = append(gr, millis(time.Since(start)))
		}
		start = time.Now()
		snap, _, err := clf.EncodeSnapshot()
		if err != nil {
			return fmt.Errorf("replay EncodeSnapshot: %w", err)
		}
		enc = append(enc, millis(time.Since(start)))
		size = len(snap)
		start = time.Now()
		if _, err := core.Load(bytes.NewReader(snap)); err != nil {
			return fmt.Errorf("replay core.Load: %w", err)
		}
		ld = append(ld, millis(time.Since(start)))
	}
	note := fmt.Sprintf("median of %d replays on the set-up model", replays)
	l.set("kdtree.build_ms", median(kd), "%s", note)
	if len(gr) > 0 {
		l.set("grid.build_ms", median(gr), "%s", note)
	}
	l.set("core.encode_ms", median(enc), "%s", note)
	l.set("core.load_ms", median(ld), "%s", note)
	l.set("core.snapshot_bytes", float64(size), "set-up model")
	return nil
}

// setRuntime reports allocation and GC activity between two memory
// snapshots, per request served in between.
func (l *layerValues) setRuntime(before, after runtime.MemStats, requests int64) {
	if requests == 0 {
		return
	}
	note := fmt.Sprintf("whole process over %d requests of the untraced phase", requests)
	l.set("server.allocs_per_req", float64(after.Mallocs-before.Mallocs)/float64(requests), "%s", note)
	gcs := after.NumGC - before.NumGC
	l.set("runtime.gc_per_1k_req", float64(gcs)*1000/float64(requests), "%s", note)
	if gcs > 0 {
		l.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6/float64(gcs), "mean stop-the-world pause of %d GCs", gcs)
	}
}

// setOverhead reports how much tracing moved the end-to-end numbers.
func (l *layerValues) setOverhead(untracedP50, tracedP50, untracedRows, tracedRows float64) {
	if untracedP50 > 0 {
		l.set("trace.latency_overhead_pct", (tracedP50/untracedP50-1)*100, "latency_p50_us untraced %.6g, traced %.6g", untracedP50, tracedP50)
	}
	if untracedRows > 0 {
		l.set("trace.rows_overhead_pct", (1-tracedRows/untracedRows)*100, "rows_per_s untraced %.6g, traced %.6g", untracedRows, tracedRows)
	}
}
