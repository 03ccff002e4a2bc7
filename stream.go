package tkdc

import (
	"tkdc/internal/core"
	"tkdc/internal/points"
	"tkdc/internal/stream"
)

// Model is a zero-downtime handle over a classifier: queries go through
// one atomic pointer load, and Publish swaps in a retrained classifier
// without ever blocking readers. Each swap bumps a generation number.
type Model = stream.Model

// Ingestor maintains a bounded-memory sample of a point stream under
// one lock — a deterministic seeded reservoir, or a sliding window of
// the newest rows.
type Ingestor = stream.Ingestor

// StreamService owns the streaming model lifecycle: ingest batches into
// the bounded sample, background retrains on count/age/drift triggers,
// atomic swaps through a Model handle, and optional on-disk snapshots.
type StreamService = stream.Service

// StreamConfig tunes a StreamService; its zero value is usable.
type StreamConfig = stream.Config

// StreamStats is a coherent view of a StreamService's lifecycle.
type StreamStats = stream.Stats

// NewModel wraps a trained classifier in a generation-1 Model handle.
func NewModel(clf *Classifier) *Model { return stream.NewModel(clf) }

// NewIngestor builds a bounded sample for dim-dimensional rows. With
// window set it keeps the newest capacity rows; otherwise a seeded
// uniform reservoir over everything ever ingested.
func NewIngestor(capacity, dim int, seed int64, window bool) (*Ingestor, error) {
	return stream.NewIngestor(capacity, dim, seed, window)
}

// NewStreamService wraps an initial trained classifier in a streaming
// lifecycle. Call Start to begin background retraining and Close on
// shutdown; queries read through Model().
func NewStreamService(initial *Classifier, cfg StreamConfig) (*StreamService, error) {
	return stream.NewService(initial, cfg)
}

// ProbeThreshold cheaply re-estimates the threshold t(p) over data in
// flat row-major form without training: a seeded held-out mini-KDE
// quantile. Meant for relative drift checks against a live threshold,
// not for serving.
func ProbeThreshold(flat []float64, dim int, cfg Config, refRows, probes int, seed int64) (float64, error) {
	store, err := points.FromFlat(flat, dim)
	if err != nil {
		return 0, err
	}
	return core.ProbeThreshold(store, cfg, refRows, probes, seed)
}
