package stream

import (
	"sync/atomic"
	"time"

	"tkdc/internal/core"
)

// generation pairs a classifier with its generation number and birth
// time. Swaps replace the whole struct behind one atomic pointer, so a
// reader can never observe a classifier paired with another generation's
// metadata (no torn reads).
type generation struct {
	clf  *core.Classifier
	gen  uint64
	born time.Time
}

// Model is a zero-downtime handle over a live classifier. Queries read
// the current generation with a single atomic pointer load and never
// block on a swap; Publish installs a new classifier with the next
// generation number. Generation numbers increase monotonically from 1.
//
// The handle adds one atomic load per query over calling the classifier
// directly — within measurement noise (see BenchmarkScoreModel).
type Model struct {
	cur atomic.Pointer[generation]
}

// NewModel wraps a trained classifier as generation 1. clf must be
// non-nil: a Model always has a servable classifier, which is what lets
// the query methods skip nil checks on the hot path.
func NewModel(clf *core.Classifier) *Model {
	if clf == nil {
		panic("stream: NewModel with nil classifier")
	}
	m := &Model{}
	m.cur.Store(&generation{clf: clf, gen: 1, born: time.Now()})
	return m
}

// Current returns the live classifier.
func (m *Model) Current() *core.Classifier { return m.cur.Load().clf }

// View returns the live classifier together with its generation number
// and birth time, coherently (all three from the same swap).
func (m *Model) View() (*core.Classifier, uint64, time.Time) {
	g := m.cur.Load()
	return g.clf, g.gen, g.born
}

// Generation returns the live model's generation number.
func (m *Model) Generation() uint64 { return m.cur.Load().gen }

// Age returns how long the live model has been serving.
func (m *Model) Age() time.Duration { return time.Since(m.cur.Load().born) }

// Publish atomically installs clf as the next generation and returns its
// generation number. Concurrent publishers are safe (compare-and-swap
// loop), though the Service serializes retrains anyway.
func (m *Model) Publish(clf *core.Classifier) uint64 {
	if clf == nil {
		panic("stream: Publish with nil classifier")
	}
	for {
		old := m.cur.Load()
		next := &generation{clf: clf, gen: old.gen + 1, born: time.Now()}
		if m.cur.CompareAndSwap(old, next) {
			return next.gen
		}
	}
}

// Classify labels one query point against the live generation.
func (m *Model) Classify(x []float64) (core.Label, error) {
	return m.cur.Load().clf.Classify(x)
}

// Score labels one query point and returns the density bounds behind the
// decision, against the live generation.
func (m *Model) Score(x []float64) (core.Result, error) {
	return m.cur.Load().clf.Score(x)
}

// ClassifyAll labels a batch against one coherent generation: the whole
// batch is scored by the classifier that was live when the call started,
// even if a swap lands mid-batch.
func (m *Model) ClassifyAll(queries [][]float64) ([]core.Label, error) {
	return m.cur.Load().clf.ClassifyAll(queries)
}

// DensityBounds estimates the density at x to relative precision rel
// against the live generation.
func (m *Model) DensityBounds(x []float64, rel float64) (fl, fu float64, err error) {
	return m.cur.Load().clf.DensityBounds(x, rel)
}

// ClassifyFlat labels a flat row-major batch against one pinned
// generation with the parallel per-query sweep (core.ClassifyFlat), so
// every label equals a per-row Score. The returned generation number
// identifies the classifier that answered every row — a swap landing
// mid-batch cannot split the batch across generations, because the
// classifier pointer is loaded exactly once.
func (m *Model) ClassifyFlat(flat []float64, n int) ([]core.Label, uint64, error) {
	g := m.cur.Load()
	out, err := g.clf.ClassifyFlat(flat, n)
	return out, g.gen, err
}

// ScoreFlat scores a flat row-major batch against one pinned
// generation, returning full per-query results and the generation
// number that produced them.
func (m *Model) ScoreFlat(flat []float64, n int) ([]core.Result, uint64, error) {
	g := m.cur.Load()
	out, err := g.clf.ScoreFlat(flat, n)
	return out, g.gen, err
}
