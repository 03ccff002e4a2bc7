// Package stream turns the batch-trained tKDC stack into a continuously
// learning service. It has three pieces:
//
//   - Ingestor: accepts point batches and maintains a bounded-memory
//     sample directly in flat row-major storage under one mutex — a
//     deterministic seeded reservoir (Vitter's Algorithm R) for
//     stationary streams, or a sliding window for drifting ones. The
//     paper's threshold bootstrap (§3.5) already derives t(p) from
//     samples, which is what makes a maintained sample a principled
//     substrate for retraining.
//   - Model: an atomic generation-numbered handle over *core.Classifier;
//     queries never block on a model swap (one atomic pointer load per
//     query on the read side).
//   - Service: the background retrainer. When a trigger fires (ingested
//     row count, model age, or threshold drift against a cheap bootstrap
//     probe) it rebuilds a classifier from the current sample off the hot
//     path, publishes it through the Model, records the retrain as a
//     telemetry phase span, and writes an atomic on-disk snapshot.
package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"tkdc/internal/points"
)

// Ingestor maintains a bounded-memory sample of an unbounded point
// stream in flat row-major form. It is safe for concurrent use; a batch
// is applied atomically with respect to Snapshot, Sample and Counts.
//
// Every Add or AddFlat call validates its batch outside the lock and
// then applies it whole under one mutex, which guards one
// capacity-row buffer and one generator seeded with the construction
// seed.
//
// In reservoir mode (the default) the buffer is a uniform sample of
// everything ever ingested, kept by Vitter's Algorithm R (DESIGN §8.0;
// cf. Phillips & Tai on when compressed samples preserve KDE accuracy).
// While fewer rows than the capacity have arrived it holds every row in
// arrival order, which is what makes the batch-training determinism
// bridge exact. Two ingestors fed the same row sequence with the same
// seed hold bit-identical samples, whatever the batch boundaries.
//
// In window mode the buffer is a ring of the newest capacity rows, so
// old data ages out and retrains track distribution drift.
type Ingestor struct {
	dim      atomic.Int64 // 0 until the first batch fixes it; written under mu
	capacity int
	window   bool

	mu   sync.Mutex
	rng  *rand.Rand    // reservoir eviction
	buf  *points.Store // capacity rows, allocated once the width is known
	n    int           // rows currently held (≤ capacity)
	seen int64         // rows ever ingested
}

// NewIngestor builds an ingestor holding at most capacity rows. dim
// fixes the expected row width; 0 infers it from the first row. seed
// drives reservoir eviction; window selects sliding-window mode (seed
// is then unused).
func NewIngestor(capacity, dim int, seed int64, window bool) (*Ingestor, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("stream: reservoir capacity %d must be at least 1", capacity)
	}
	if dim < 0 {
		return nil, fmt.Errorf("stream: dimension %d must be non-negative", dim)
	}
	ing := &Ingestor{
		capacity: capacity,
		window:   window,
		rng:      rand.New(rand.NewSource(seed)),
	}
	if dim > 0 {
		ing.buf = points.New(capacity, dim)
		ing.dim.Store(int64(dim))
	}
	return ing, nil
}

// Add ingests a batch of rows. The batch is validated in full first —
// consistent dimensionality, finite coordinates — and rejected whole on
// the first bad row, mirroring the /classify request semantics; nothing
// is ingested on error. Validation runs before the lock is taken (the
// expected row width is one atomic load), so a malformed (or merely
// large) batch never stalls concurrent ingesters while it is being
// checked. Returns the number of rows ingested.
func (ing *Ingestor) Add(rows [][]float64) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	dim := ing.Dim()
	if dim == 0 {
		dim = len(rows[0])
	}
	if err := validateRows(rows, dim); err != nil {
		return 0, err
	}
	if err := ing.lock(dim); err != nil {
		return 0, err
	}
	for _, row := range rows {
		ing.ingestRow(row)
	}
	ing.mu.Unlock()
	return len(rows), nil
}

// AddFlat ingests rows already in flat row-major form: flat holds
// len(flat)/dim rows of width dim. Validation and atomicity match Add.
// An empty batch does not fix the row width.
func (ing *Ingestor) AddFlat(flat []float64, dim int) (int, error) {
	want := ing.Dim()
	if want == 0 {
		want = dim
	}
	if err := validateFlat(flat, dim, want); err != nil {
		return 0, err
	}
	if len(flat) == 0 && ing.Dim() == 0 {
		return 0, nil
	}
	if err := ing.lock(dim); err != nil {
		return 0, err
	}
	n := len(flat) / dim
	for r := 0; r < n; r++ {
		ing.ingestRow(flat[r*dim : (r+1)*dim])
	}
	ing.mu.Unlock()
	return n, nil
}

// lock takes the mutex for a validated batch of width dim. The first
// batch fixes the row width and allocates the buffer; a batch whose
// width disagrees with the buffer's is rejected and the mutex released.
// The batch was validated against a width read before the lock, so two
// first batches of different widths can race to here; the one that
// takes the mutex first wins.
func (ing *Ingestor) lock(dim int) error {
	ing.mu.Lock()
	if ing.buf == nil {
		ing.buf = points.New(ing.capacity, dim)
		ing.dim.Store(int64(dim))
	}
	if d := ing.buf.Dim; d != dim {
		ing.mu.Unlock()
		return fmt.Errorf("stream: batch has dimension %d, want %d", dim, d)
	}
	return nil
}

// validateRows checks every row for the expected width and finite
// coordinates, rejecting the batch whole on the first bad row.
func validateRows(rows [][]float64, dim int) error {
	for r, row := range rows {
		if err := checkRow(row, dim, r); err != nil {
			return err
		}
	}
	return nil
}

// validateFlat checks a flat row-major buffer: dim divides the length
// and every row of width dim matches the expected width want with
// finite coordinates.
func validateFlat(flat []float64, dim, want int) error {
	if dim <= 0 {
		return fmt.Errorf("stream: dimension %d must be positive", dim)
	}
	if len(flat)%dim != 0 {
		return fmt.Errorf("stream: buffer length %d is not a multiple of dimension %d", len(flat), dim)
	}
	n := len(flat) / dim
	for r := 0; r < n; r++ {
		if err := checkRow(flat[r*dim:(r+1)*dim], want, r); err != nil {
			return err
		}
	}
	return nil
}

func checkRow(row []float64, dim, idx int) error {
	if len(row) == 0 {
		return fmt.Errorf("stream: row %d is empty", idx)
	}
	if len(row) != dim {
		return fmt.Errorf("stream: row %d has dimension %d, want %d", idx, len(row), dim)
	}
	for j, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stream: row %d coordinate %d is %v", idx, j, v)
		}
	}
	return nil
}

// ingestRow applies one validated row. Callers hold mu.
func (ing *Ingestor) ingestRow(row []float64) {
	ing.seen++
	if ing.n < ing.capacity {
		copy(ing.buf.Row(ing.n), row)
		ing.n++
		return
	}
	if ing.window {
		// Ring overwrite: the slot of the oldest row is (seen-1) mod cap
		// once the buffer is full, because rows land in arrival order.
		copy(ing.buf.Row(int((ing.seen-1)%int64(ing.capacity))), row)
		return
	}
	// Algorithm R: the new row replaces a uniformly random slot with
	// probability capacity/seen.
	if j := ing.rng.Int63n(ing.seen); j < int64(ing.capacity) {
		copy(ing.buf.Row(int(j)), row)
	}
}

// Snapshot copies the sample — Len() rows — into a fresh store, the
// input to a retrain, safe to index and keep while ingestion continues,
// and returns the total rows ingested at the moment of the copy. In
// reservoir mode the rows are the buffer in slot order, so back-to-back
// Snapshots of an idle ingestor are identical; in window mode they are
// the newest rows, oldest to newest. A nil store is returned while the
// sample is empty.
func (ing *Ingestor) Snapshot() (*points.Store, int64) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.n == 0 {
		return nil, ing.seen
	}
	out := points.New(ing.n, ing.buf.Dim)
	// Until the ring is full it holds the rows in arrival order; after
	// that the oldest row sits at slot seen mod capacity.
	start := 0
	if ing.window && ing.n == ing.capacity {
		start = int(ing.seen%int64(ing.capacity)) * ing.buf.Dim
	}
	k := copy(out.Data, ing.buf.Data[start:])
	copy(out.Data[k:], ing.buf.Data[:start])
	return out, ing.seen
}

// Sample copies at most k uniformly drawn rows of the sample into a
// fresh store — the drift probe's input — using a private generator
// seeded with seed, so the draw is reproducible and leaves the
// reservoir untouched. It returns at most Len() rows: every held row,
// in slot order, when k ≥ Len(), and otherwise k distinct slots drawn
// by sparse Fisher–Yates. Returns nil while empty.
func (ing *Ingestor) Sample(k int, seed int64) *points.Store {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	k = min(k, ing.n)
	if k < 1 {
		return nil
	}
	out := points.New(k, ing.buf.Dim)
	if k == ing.n {
		copy(out.Data, ing.buf.Data)
		return out
	}
	row := 0
	sampleSlots(rand.New(rand.NewSource(seed)), ing.n, k, func(slot int) {
		copy(out.Row(row), ing.buf.Row(slot))
		row++
	})
	return out
}

// sampleSlots visits k distinct uniformly drawn slots of [0, n), k ≤ n,
// in draw order. It runs the first k steps of a Fisher–Yates shuffle,
// tracking only displaced slots: a dense map of the whole index space
// is never built, so the allocation cost is O(k) however large n is.
// For draws dense enough that the map would cost more than the
// permutation it avoids, it falls back to the classic array shuffle.
// Both paths consume rng identically (one Intn per draw) and emit the
// same slots for the same seed.
func sampleSlots(rng *rand.Rand, n, k int, visit func(slot int)) {
	if k*4 >= n {
		idx := make([]int, n)
		for j := range idx {
			idx[j] = j
		}
		for j := 0; j < k; j++ {
			l := j + rng.Intn(n-j)
			idx[j], idx[l] = idx[l], idx[j]
			visit(idx[j])
		}
		return
	}
	displaced := make(map[int]int, 2*k)
	slotAt := func(pos int) int {
		if v, ok := displaced[pos]; ok {
			return v
		}
		return pos
	}
	for j := 0; j < k; j++ {
		l := j + rng.Intn(n-j)
		sj, sl := slotAt(j), slotAt(l)
		displaced[l] = sj
		delete(displaced, j) // position j is never probed again
		visit(sl)
	}
}

// Counts returns the rows ever ingested and the rows the sample holds
// (Len), read in one critical section, so held never exceeds seen.
func (ing *Ingestor) Counts() (seen int64, held int) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.seen, ing.n
}

// Seen returns the total number of rows ever ingested.
func (ing *Ingestor) Seen() int64 {
	seen, _ := ing.Counts()
	return seen
}

// Len returns the sample's current size: min(Capacity, Seen), the
// number of rows Snapshot returns.
func (ing *Ingestor) Len() int {
	_, held := ing.Counts()
	return held
}

// Dim returns the row width, or 0 before the first row arrives. It is
// one atomic load — Add reads it before validating a batch, so it must
// not (and does not) touch the mutex.
func (ing *Ingestor) Dim() int {
	return int(ing.dim.Load())
}

// Capacity returns the sample bound.
func (ing *Ingestor) Capacity() int { return ing.capacity }

// WindowMode reports whether the ingestor keeps a sliding window rather
// than a reservoir.
func (ing *Ingestor) WindowMode() bool { return ing.window }

// ShardedIngestor is Ingestor.
//
// Deprecated: the sample has one lock; use Ingestor.
type ShardedIngestor = Ingestor

// NewShardedIngestor is NewIngestor; the shard count is ignored.
//
// Deprecated: the sample has one lock; use NewIngestor.
func NewShardedIngestor(capacity, dim int, seed int64, window bool, _ int) (*Ingestor, error) {
	return NewIngestor(capacity, dim, seed, window)
}

// DefaultShards returns 1.
//
// Deprecated: the sample has one lock, so there is no shard count.
func DefaultShards() int { return 1 }

// errEmpty reports a retrain attempted before any rows arrived.
var errEmpty = errors.New("stream: no ingested rows to retrain on")
