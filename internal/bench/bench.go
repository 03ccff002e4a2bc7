// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 4). Each experiment is a
// function that measures the relevant algorithms on the relevant
// (synthetic) datasets and renders a plain-text table whose rows mirror
// the series the paper plots.
//
// Absolute numbers differ from the paper's testbed; the deliverable is
// the shape — which algorithm wins, by roughly what factor, and where the
// crossovers fall. Experiment sizes are scaled by Options.Scale so the
// full suite runs on a laptop; Scale = 1 approaches paper-scale inputs.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"tkdc/internal/baseline"
	"tkdc/internal/core"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
	"tkdc/internal/stats"
	"tkdc/internal/telemetry"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies dataset sizes (1 = paper scale, default 0.01).
	Scale float64
	// MaxQueries caps the measured queries per algorithm; throughput for
	// the full dataset is extrapolated (0 = default 2000).
	MaxQueries int
	// Seed drives dataset generation and training.
	Seed int64
	// Out receives the rendered tables (io.Discard if nil).
	Out io.Writer
	// Recorder, when non-nil, is attached to every tKDC classifier the
	// experiments train, so a harness run can be profiled with the same
	// telemetry (phase traces, work histograms) as production serving.
	Recorder telemetry.Recorder
}

// config returns the experiments' base classifier configuration: the
// paper's Table 1 defaults with the run's seed and recorder attached.
func (o Options) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.Recorder = o.Recorder
	return cfg
}

func (o Options) normalized() Options {
	if o.Scale <= 0 {
		o.Scale = 0.01
	}
	if o.MaxQueries <= 0 {
		o.MaxQueries = 2000
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

// scaled returns max(n·Scale, floor) — dataset sizes honoring the scale
// factor without degenerating.
func (o Options) scaled(n, floor int) int {
	s := int(float64(n) * o.Scale)
	if s < floor {
		s = floor
	}
	if s > n {
		s = n
	}
	return s
}

// Table is a rendered experiment result.
type Table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// Measurement is one algorithm's performance on one workload.
type Measurement struct {
	Algo            string
	N, D            int
	TrainSeconds    float64
	QueriesMeasured int
	QuerySeconds    float64
	KernelsPerQuery float64
}

// EffectiveThroughput returns the paper's end-to-end metric: dataset
// size divided by (training time + extrapolated time to classify every
// point), in queries per second.
func (m Measurement) EffectiveThroughput() float64 {
	if m.QueriesMeasured == 0 {
		return 0
	}
	perQuery := m.QuerySeconds / float64(m.QueriesMeasured)
	total := m.TrainSeconds + perQuery*float64(m.N)
	if total <= 0 {
		return 0
	}
	return float64(m.N) / total
}

// QueryThroughput returns queries per second excluding training time
// (the metric of Figures 9 and 10).
func (m Measurement) QueryThroughput() float64 {
	if m.QuerySeconds <= 0 {
		return 0
	}
	return float64(m.QueriesMeasured) / m.QuerySeconds
}

// MeasureTKDC trains a tKDC classifier and measures classification of the
// training points themselves (the paper's outlier-detection setting).
func MeasureTKDC(data [][]float64, cfg core.Config, maxQueries int) (Measurement, error) {
	m := Measurement{Algo: "tkdc", N: len(data), D: len(data[0])}
	start := time.Now()
	clf, err := core.Train(data, cfg)
	if err != nil {
		return m, err
	}
	m.TrainSeconds = time.Since(start).Seconds()

	q := maxQueries
	if q > len(data) {
		q = len(data)
	}
	before := clf.Stats()
	start = time.Now()
	for i := 0; i < q; i++ {
		if _, err := clf.Score(data[i]); err != nil {
			return m, err
		}
	}
	m.QuerySeconds = time.Since(start).Seconds()
	m.QueriesMeasured = q
	after := clf.Stats()
	m.KernelsPerQuery = float64(after.Kernels()-before.Kernels()) / float64(q)
	return m, nil
}

// BaselineKind names a Table 2 comparison algorithm.
type BaselineKind string

// The Table 2 baselines.
const (
	Simple BaselineKind = "simple"
	NoCut  BaselineKind = "nocut"
	RKDE   BaselineKind = "rkde"
	Binned BaselineKind = "binned"
)

// BaselineParams tunes baseline construction.
type BaselineParams struct {
	// Epsilon is nocut's relative-error target (default 0.01).
	Epsilon float64
	// Radius is rkde's cutoff in bandwidth multiples (default derived
	// from the ε·t guarantee with t estimated from a density sample).
	Radius float64
	// BandwidthFactor scales Scott's rule (default 1).
	BandwidthFactor float64
}

func (p BaselineParams) normalized() BaselineParams {
	if p.Epsilon == 0 {
		p.Epsilon = 0.01
	}
	if p.BandwidthFactor == 0 {
		p.BandwidthFactor = 1
	}
	return p
}

// NewBaseline constructs a Table 2 estimator over data. The rows are
// copied into flat storage once, here at the harness boundary; every
// estimator below works on the contiguous buffer.
func NewBaseline(kind BaselineKind, data [][]float64, params BaselineParams) (baseline.Estimator, error) {
	params = params.normalized()
	pts, err := points.FromRows(data)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	h, err := kernel.ScottBandwidths(pts, params.BandwidthFactor)
	if err != nil {
		return nil, err
	}
	kern, err := kernel.NewGaussian(h)
	if err != nil {
		return nil, err
	}
	switch kind {
	case Simple:
		return baseline.NewSimple(pts, kern), nil
	case NoCut:
		return baseline.NewNoCut(pts, kern, params.Epsilon)
	case RKDE:
		radius := params.Radius
		if radius <= 0 {
			// Paper default: smallest radius guaranteeing error ε·t. We
			// estimate t cheaply from a small exact density sample.
			t := sampleThreshold(pts, kern, 200, 0.01)
			radius, err = baseline.RadiusForError(kern, params.Epsilon*t)
			if err != nil {
				return nil, err
			}
		}
		return baseline.NewRKDE(pts, kern, radius)
	case Binned:
		return baseline.NewBinned(pts, kern)
	default:
		return nil, fmt.Errorf("bench: unknown baseline %q", kind)
	}
}

// sampleThreshold estimates t(p) from exact densities of a small sample.
func sampleThreshold(pts *points.Store, kern *kernel.Gaussian, sample int, p float64) float64 {
	n := pts.Len()
	if sample > n {
		sample = n
	}
	ds := make([]float64, sample)
	stride := n / sample
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < sample; i++ {
		q := pts.Row(i * stride)
		ds[i] = kern.Sum(q, pts.Data) / float64(n)
	}
	sort.Float64s(ds)
	t, err := stats.SortedQuantile(ds, p)
	if err != nil || t <= 0 {
		return kern.AtZero() * 1e-6
	}
	return t
}

// MeasureBaseline builds a baseline estimator and measures density
// queries over the dataset's own points.
func MeasureBaseline(kind BaselineKind, data [][]float64, params BaselineParams, maxQueries int) (Measurement, error) {
	m := Measurement{Algo: string(kind), N: len(data), D: len(data[0])}
	start := time.Now()
	est, err := NewBaseline(kind, data, params)
	if err != nil {
		return m, err
	}
	m.TrainSeconds = time.Since(start).Seconds()

	q := maxQueries
	if q > len(data) {
		q = len(data)
	}
	before := est.Kernels()
	start = time.Now()
	for i := 0; i < q; i++ {
		est.Density(data[i])
	}
	m.QuerySeconds = time.Since(start).Seconds()
	m.QueriesMeasured = q
	m.KernelsPerQuery = float64(est.Kernels()-before) / float64(q)
	return m, nil
}

// fmtRate renders a throughput with SI-style compaction (like the paper's
// "55.2k", "6.36M" labels).
func fmtRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3gk", v/1e3)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// fmtCount compacts large counts the same way.
func fmtCount(v float64) string { return fmtRate(v) }
