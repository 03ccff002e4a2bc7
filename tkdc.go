// Package tkdc implements thresholded kernel density classification
// (tKDC) from Gan & Bailis, "Scalable Kernel Density Classification via
// Threshold-Based Pruning", SIGMOD 2017.
//
// Density classification labels query points HIGH or LOW depending on
// whether their kernel density estimate lies above or below a threshold
// t(p) — the p-quantile of the training densities. tKDC avoids computing
// exact densities: it traverses a k-d tree maintaining certified upper
// and lower density bounds and stops as soon as the bounds fall on one
// side of the threshold (the threshold rule) or are within ε·t of each
// other (the tolerance rule). For d-dimensional data this reduces the
// per-query cost from O(n) to O(n^{(d−1)/d}) — O(log n) when d = 1 —
// while guaranteeing that every point whose density is farther than ε·t
// from the threshold is classified exactly as an exact KDE would.
//
// Basic usage:
//
//	clf, err := tkdc.Train(data, tkdc.DefaultConfig())
//	if err != nil { ... }
//	label, err := clf.Classify(query)   // tkdc.High or tkdc.Low
//
// DefaultConfig matches the paper's Table 1 defaults: classification rate
// p = 0.01, multiplicative error ε = 0.01, bound failure probability
// δ = 0.01, Scott's-rule bandwidths, Gaussian kernels, an equi-width k-d
// tree, and a hypergrid inlier cache for d ≤ 4.
//
// The classifier is immutable once trained and safe for concurrent
// queries; set Config.Workers to fan both training (tree construction,
// bootstrap scoring, grid fill) and batch classification out over
// goroutines. Trained models are bit-identical at every worker count.
package tkdc

import (
	"io"

	"tkdc/internal/core"
	"tkdc/internal/kdtree"
	"tkdc/internal/telemetry"
)

// Config carries the density-classification parameters (Table 1 of the
// paper) and implementation knobs. See DefaultConfig for the defaults.
type Config = core.Config

// Classifier is a trained tKDC model: immutable and safe for concurrent
// queries.
type Classifier = core.Classifier

// Label is a density classification outcome: High or Low.
type Label = core.Label

// Result carries a classification together with the certified density
// bounds behind it.
type Result = core.Result

// QueryStats counts the work one density query performed.
type QueryStats = core.QueryStats

// Counters aggregates query work since training.
type Counters = core.Counters

// TrainStats describes the training phase: bandwidths, threshold bounds,
// bootstrap rounds, and kernel evaluations spent.
type TrainStats = core.TrainStats

// KernelFamily names the kernel of the density estimate; KernelGaussian
// is the only one.
type KernelFamily = core.KernelFamily

// SplitRule selects the k-d tree partitioning strategy.
type SplitRule = kdtree.SplitRule

// Recorder receives per-query telemetry samples and training phase
// spans; hang one on Config.Recorder (nil keeps telemetry off). See
// Registry for the standard implementation.
type Recorder = telemetry.Recorder

// Registry is the standard telemetry recorder: atomic counters plus
// log-spaced histograms for query latency, kernel evaluations per
// query, and tree nodes visited, and a phase trace for training.
type Registry = telemetry.Registry

// MetricsSnapshot is a coherent copy of a Registry: counters, latency
// and work histograms (with Quantile/Mean accessors), and the phase
// trace. Its String method renders a human-readable summary.
type MetricsSnapshot = telemetry.Snapshot

// QuerySample is one query's telemetry: latency and traversal work.
type QuerySample = telemetry.QuerySample

// QueryTrace is one query's flight record: per-stage timings, traversal
// work, the density bounds reached, and the threshold margin at decision
// time. Traces are captured when a FlightRecorder is attached to the
// classifier's Registry and are immutable once filed.
type QueryTrace = telemetry.QueryTrace

// TraceStage is one named stage of a QueryTrace (the near-first start's
// near phase, or the refinement loop) with its duration and work.
type TraceStage = telemetry.TraceStage

// FlightRecorder retains the K slowest and K most recent query traces
// plus every threshold-straddling query, and logs queries slower than a
// configurable latency threshold. Attach one with
// Registry.AttachFlightRecorder; snapshot it with FlightRecorder.Snapshot.
type FlightRecorder = telemetry.FlightRecorder

// FlightOptions configures NewFlightRecorder: retention depth K, the
// slow-query log threshold, and the structured logger slow queries go to.
type FlightOptions = telemetry.FlightOptions

// FlightSnapshot is a coherent copy of a FlightRecorder's retained
// traces and counters, ready for JSON encoding (GET /debug/queries
// serves exactly this).
type FlightSnapshot = telemetry.FlightSnapshot

// PhaseSpan names one bounded phase of batch work (a bootstrap round, a
// training pass) with its duration and kernel count.
type PhaseSpan = telemetry.Span

// Classification labels.
const (
	// Low marks a point whose density is below the threshold (an outlier
	// for small p).
	Low = core.Low
	// High marks a point whose density is above the threshold.
	High = core.High
)

// KernelGaussian is the paper's Gaussian product kernel, the zero value
// of Config.Kernel.
const KernelGaussian = core.KernelGaussian

// Density backends. Config.Backend selects where Algorithm 2's one
// certified refinement loop starts: at the tree's root, at the frontier
// of a near phase, or by dimension between the two.
const (
	// BackendAuto picks the tree backend for d ≤ 8 and sampling above.
	BackendAuto = core.BackendAuto
	// BackendTree is the paper's certified branch-and-bound traversal,
	// started at the tree's root.
	BackendTree = core.BackendTree
	// BackendSampling names the near-first start, which scales to
	// dimensions where the tree's distance bounds degenerate: a
	// DEANN-style near phase sums the query's own neighbourhood exactly,
	// and the certified loop refines the frontier it leaves. Its answers
	// are certified too; nothing is sampled, and the tag keeps its name
	// because snapshots and -backend carry it.
	BackendSampling = core.BackendSampling
)

// Backends lists the valid Config.Backend values.
func Backends() []string { return core.Backends() }

// k-d tree split rules.
const (
	// SplitEquiWidth splits nodes at the trimmed midpoint
	// (x⁽¹⁰⁾+x⁽⁹⁰⁾)/2 — the paper's tKDC default (Section 3.7).
	SplitEquiWidth = kdtree.SplitEquiWidth
	// SplitMedian produces a balanced tree (the classic construction).
	SplitMedian = kdtree.SplitMedian
)

// DefaultConfig returns the paper's Table 1 parameter defaults.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewRegistry returns a fresh, enabled telemetry registry ready to set
// as Config.Recorder (or to pass to several classifiers, which then
// aggregate into one set of histograms).
func NewRegistry() *Registry { return telemetry.NewRegistry() }

// NewFlightRecorder returns an enabled query flight recorder. Attach it
// to a classifier's registry with Registry.AttachFlightRecorder to start
// capturing per-query traces.
func NewFlightRecorder(opts FlightOptions) *FlightRecorder {
	return telemetry.NewFlightRecorder(opts)
}

// DefaultRegistry returns the process-wide registry behind Metrics().
// The tkdc CLI's -serve and -stats modes record into it.
func DefaultRegistry() *Registry { return telemetry.Default }

// Metrics snapshots the process-wide default registry: query latency
// and work histograms, grid cache counters, and phase traces from every
// classifier whose Recorder is DefaultRegistry(). Classifiers without a
// recorder contribute nothing (telemetry defaults to off).
func Metrics() MetricsSnapshot { return telemetry.Default.Snapshot() }

// Train fits a tKDC classifier: it builds the spatial index and grid
// cache, narrows a window on the threshold from growing subsamples
// (Algorithm 3), and takes t̃(p) and its 1−δ bounds in one pass that
// scores every training point with threshold-pruned traversals against
// that window (Algorithm 1).
//
// The rows are copied into the classifier's own contiguous storage, so
// callers are free to mutate or discard data after Train returns.
// Training is deterministic for a fixed Config.Seed.
func Train(data [][]float64, cfg Config) (*Classifier, error) {
	return core.Train(data, cfg)
}

// TrainFlat is Train for data already in flat row-major form: flat holds
// n·dim coordinates with point i occupying flat[i*dim : (i+1)*dim]. The
// buffer is copied in, like Train. Use this to avoid building a
// [][]float64 when the data source is already contiguous (a matrix, a
// column file, an mmap'd array).
func TrainFlat(flat []float64, dim int, cfg Config) (*Classifier, error) {
	return core.TrainFlat(flat, dim, cfg)
}

// TrainDefault is Train with DefaultConfig.
func TrainDefault(data [][]float64) (*Classifier, error) {
	return core.Train(data, core.DefaultConfig())
}

// Load reconstructs a classifier previously serialized with
// Classifier.Save. The spatial index is rebuilt deterministically from
// the stored data; the persisted threshold is reused, so loading skips
// the training phase entirely.
func Load(r io.Reader) (*Classifier, error) {
	return core.Load(r)
}

// LoadFile loads a snapshot file written by Classifier.SaveFile (or the
// CLI's -save), verifying the SHA-256 recorded in the snapshot frame
// before deserializing — a torn or corrupted file fails loudly with a
// checksum error naming the path.
func LoadFile(path string) (*Classifier, error) {
	return core.LoadFile(path)
}
