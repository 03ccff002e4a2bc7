// Package stream turns the batch-trained tKDC stack into a continuously
// learning service. It has three pieces:
//
//   - Ingestor: accepts point batches and maintains a bounded-memory
//     sample directly in flat row-major storage — a deterministic seeded
//     reservoir (Vitter's Algorithm R) for stationary streams, or a
//     sliding window for drifting ones. The paper's threshold bootstrap
//     (§3.5) already derives t(p) from samples, which is what makes a
//     maintained sample a principled substrate for retraining.
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
	"runtime"
	"sync"
	"sync/atomic"

	"tkdc/internal/points"
)

// maxShards bounds the shard count: past this, per-shard sample memory
// (each shard holds a full-capacity buffer) dwarfs any contention win.
const maxShards = 64

// DefaultShards is the shard count used when an Ingestor is built with
// shards == 0: one shard per scheduler thread, clamped to
// [1, maxShards].
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	return n
}

// Ingestor maintains a bounded-memory sample of an unbounded point
// stream in flat row-major form. It is safe for concurrent use; a batch
// is applied atomically with respect to Snapshot and Sample.
//
// The sample is striped over K shards, K fixed at creation (1 for
// NewIngestor). Each shard is a mutex, a full-capacity buffer and its
// own reservoir generator. Every Add or AddFlat call validates outside
// any lock and lands whole on one shard, assigned by a wait-free ticket
// counter, so concurrent batches contend only when they land on the
// same shard. All K shards run the same code: K = 1 is not a special
// case.
//
// In reservoir mode (the default) each shard keeps a uniform sample of
// its own sub-stream with Vitter's Algorithm R, and Snapshot draws
// min(capacity, seen) rows across the shards, weighted by how many rows
// each shard saw: a uniform sample of everything ever ingested
// (DESIGN §8.0; cf. Phillips & Tai on when compressed samples preserve
// KDE accuracy). While fewer rows than the capacity have arrived the
// draw is every held row, which at K = 1 is the rows in arrival order —
// what makes the batch-training determinism bridge exact. For a fixed
// batch→shard assignment (any sequential feed) two ingestors fed the
// same batches with the same seed hold bit-identical samples; different
// shard counts draw different, equally uniform ones.
//
// In window mode each shard keeps its newest capacity rows, and
// Snapshot merges the newest rows of each shard, so old data ages out
// and retrains track distribution drift.
//
// Memory: K × capacity rows. Sharding buys ingest parallelism with
// sample memory, not accuracy.
type Ingestor struct {
	shards   []*shard
	dim      atomic.Int64 // 0 until the first batch fixes it
	seed     int64        // seeds Snapshot's cross-shard draw
	capacity int          // bound of the sample and of each shard
	window   bool
	// Every batch reads the fields above and writes seq, the ticket
	// counter behind shard assignment. The padding keeps that write off
	// their cache line, so concurrent batches do not miss on it.
	_   [64]byte
	seq atomic.Uint32
}

// ShardedIngestor is another name for Ingestor, kept for callers that
// name the striped ingestor.
type ShardedIngestor = Ingestor

// shard is one lock's share of the sample. Every batch that lands on a
// shard writes its lock and counters, so the padding keeps each shard
// off its neighbours' cache lines: unpadded, two 40-byte shards share a
// line, concurrent batches on different shards contend on it anyway,
// and a 1024-row batch at K = 2 on two cores took twice as long
// (DESIGN §8.0).
type shard struct {
	mu   sync.Mutex
	rng  *rand.Rand    // reservoir eviction, seeded with seed ⊕ shard index
	buf  *points.Store // capacity rows, allocated once the width is known
	n    int           // rows currently held (≤ capacity)
	seen int64         // rows ever ingested by this shard
	_    [64]byte
}

// NewIngestor builds an ingestor holding at most capacity rows in one
// shard. dim fixes the expected row width; 0 infers it from the first
// row. seed drives reservoir eviction; window selects sliding-window
// mode (seed is then unused).
func NewIngestor(capacity, dim int, seed int64, window bool) (*Ingestor, error) {
	return NewShardedIngestor(capacity, dim, seed, window, 1)
}

// NewShardedIngestor builds an ingestor whose sample holds at most
// capacity rows, striped over shards shards; shards == 0 picks
// DefaultShards. Shard i's reservoir generator is seeded with seed ⊕ i,
// so shard 0 of any K draws the generator stream of NewIngestor.
func NewShardedIngestor(capacity, dim int, seed int64, window bool, shards int) (*Ingestor, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("stream: reservoir capacity %d must be at least 1", capacity)
	}
	if dim < 0 {
		return nil, fmt.Errorf("stream: dimension %d must be non-negative", dim)
	}
	if shards < 0 {
		return nil, fmt.Errorf("stream: shard count %d must be non-negative", shards)
	}
	if shards == 0 {
		shards = DefaultShards()
	}
	if shards > maxShards {
		return nil, fmt.Errorf("stream: shard count %d exceeds the maximum %d", shards, maxShards)
	}
	ing := &Ingestor{
		shards:   make([]*shard, shards),
		seed:     seed,
		capacity: capacity,
		window:   window,
	}
	ing.dim.Store(int64(dim))
	for i := range ing.shards {
		sh := &shard{rng: rand.New(rand.NewSource(seed ^ int64(i)))}
		if dim > 0 {
			sh.buf = points.New(capacity, dim)
		}
		ing.shards[i] = sh
	}
	return ing, nil
}

// Add ingests a batch of rows into one shard. The batch is validated in
// full first — consistent dimensionality, finite coordinates — and
// rejected whole on the first bad row, mirroring the /classify request
// semantics; nothing is ingested on error. Validation runs before any
// lock is taken (the expected row width is one atomic load), so a
// malformed (or merely large) batch never stalls concurrent ingesters
// while it is being checked. Returns the number of rows ingested.
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
	sh, err := ing.lockShard(dim)
	if err != nil {
		return 0, err
	}
	for _, row := range rows {
		ing.ingestRow(sh, row)
	}
	sh.mu.Unlock()
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
	sh, err := ing.lockShard(dim)
	if err != nil {
		return 0, err
	}
	n := len(flat) / dim
	for r := 0; r < n; r++ {
		ing.ingestRow(sh, flat[r*dim:(r+1)*dim])
	}
	sh.mu.Unlock()
	return n, nil
}

// lockShard fixes the row width on the first batch, rejects a batch
// whose width disagrees with it, and returns the next shard by ticket,
// locked. The batch was validated against a width read before it was
// fixed, so two first batches of different widths can race here; the
// CAS settles which one wins. It runs only while the width is 0, so
// later batches only read the cache line that holds it.
func (ing *Ingestor) lockShard(dim int) (*shard, error) {
	if ing.dim.Load() == 0 {
		ing.dim.CompareAndSwap(0, int64(dim))
	}
	if d := ing.Dim(); d != dim {
		return nil, fmt.Errorf("stream: batch has dimension %d, want %d", dim, d)
	}
	sh := ing.shards[int(ing.seq.Add(1)-1)%len(ing.shards)]
	sh.mu.Lock()
	if sh.buf == nil {
		sh.buf = points.New(ing.capacity, dim)
	}
	return sh, nil
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

// ingestRow applies one validated row to sh. Callers hold sh.mu.
func (ing *Ingestor) ingestRow(sh *shard, row []float64) {
	sh.seen++
	if sh.n < ing.capacity {
		copy(sh.buf.Row(sh.n), row)
		sh.n++
		return
	}
	if ing.window {
		// Ring overwrite: the slot of the oldest row is (seen-1) mod cap
		// once the buffer is full, because rows land in arrival order.
		copy(sh.buf.Row(int((sh.seen-1)%int64(ing.capacity))), row)
		return
	}
	// Algorithm R: the new row replaces a uniformly random slot with
	// probability capacity/seen.
	if j := sh.rng.Int63n(sh.seen); j < int64(ing.capacity) {
		copy(sh.buf.Row(int(j)), row)
	}
}

// lockAll acquires every shard lock in index order (the fixed order is
// what makes concurrent readers deadlock-free) and returns the rows
// ever ingested and the rows held across shards. The read is one
// atomic cut: a batch is either entirely in it or entirely absent.
func (ing *Ingestor) lockAll() (seen int64, held int) {
	for _, sh := range ing.shards {
		sh.mu.Lock()
		seen += sh.seen
		held += sh.n
	}
	return seen, held
}

func (ing *Ingestor) unlockAll() {
	for _, sh := range ing.shards {
		sh.mu.Unlock()
	}
}

// Snapshot copies the sample — Len() rows drawn across all shards —
// into a fresh store, the input to a retrain, safe to index and keep
// while ingestion continues, and returns the total rows ingested at the
// moment of the copy. In reservoir mode the rows are a uniform draw of
// the stream, seeded from the construction seed, so back-to-back
// Snapshots of an idle ingestor are identical; in window mode they are
// each shard's newest rows, oldest to newest. A nil store is returned
// while the sample is empty.
func (ing *Ingestor) Snapshot() (*points.Store, int64) {
	seen, held := ing.lockAll()
	defer ing.unlockAll()
	if held == 0 {
		return nil, seen
	}
	if ing.window {
		return ing.mergeWindowLocked(held), seen
	}
	return ing.drawLocked(min(ing.capacity, held), held, ing.seed), seen
}

// Sample copies at most k uniformly drawn rows of the sample into a
// fresh store — the drift probe's input — using a private generator
// seeded with seed, so the draw is reproducible and leaves the
// reservoirs untouched. It returns at most Len() rows, weighted across
// shards as Snapshot's draw is in reservoir mode (by rows seen). In
// window mode it draws from the rows Snapshot returns, each shard's
// newest rows, so the probe reads the data a retrain sees. Returns nil
// while empty.
func (ing *Ingestor) Sample(k int, seed int64) *points.Store {
	_, held := ing.lockAll()
	defer ing.unlockAll()
	k = min(k, ing.capacity, held)
	if k < 1 {
		return nil
	}
	return ing.drawLocked(k, held, seed)
}

// drawLocked draws k distinct held rows, k ≤ min(capacity, held), into
// a fresh store. It allocates the k slots across shards by the
// multivariate hypergeometric over per-shard weights — rows seen in
// reservoir mode, which makes the draw a uniform k-subset of the whole
// stream, or in window mode the rows the window merge keeps — and then
// draws each shard's count of rows within it by sparse Fisher–Yates,
// both from one generator seeded with seed. A shard's count never
// exceeds min(weight, k), which it holds. A window-mode shard that the
// merge cuts draws arrival ranks among its newest rows instead of
// slots.
//
// Two cases make no allocation draw. When every held row goes out (the
// fill phase, or one full shard) the shards are copied whole in index
// order; when one shard carries all the weight it takes all k slots.
// K = 1 always lands in one of the two, so a single shard's draw is
// its buffer in slot order or one sparse Fisher–Yates straight from the
// seed (TestIngestorDigests pins both). Callers hold every shard lock.
func (ing *Ingestor) drawLocked(k, held int, seed int64) *points.Store {
	counts := make([]int, len(ing.shards))
	var take []int
	if ing.window {
		take = ing.windowTakeLocked(held)
	}
	var rng *rand.Rand
	if k == held {
		for i, sh := range ing.shards {
			counts[i] = sh.n
		}
	} else {
		rng = rand.New(rand.NewSource(seed))
		weights := make([]int64, len(ing.shards))
		for i, sh := range ing.shards {
			weights[i] = sh.seen
			if ing.window {
				weights[i] = int64(take[i])
			}
		}
		allocate(rng, weights, counts, k)
	}
	dim := ing.Dim()
	out := points.New(k, dim)
	row := 0
	for i, sh := range ing.shards {
		switch c := counts[i]; {
		case c == 0:
		case c == sh.n:
			copy(out.Data[row*dim:], sh.buf.Data[:c*dim])
			row += c
		case ing.window && take[i] < sh.n:
			oldest := sh.n - take[i]
			sampleSlots(rng, take[i], c, func(r int) {
				copy(out.Row(row), sh.buf.Row(ing.rankSlotLocked(sh, oldest+r)))
				row++
			})
		default:
			sampleSlots(rng, sh.n, c, func(slot int) {
				copy(out.Row(row), sh.buf.Row(slot))
				row++
			})
		}
	}
	return out
}

// allocate adds to counts a split of k draws across shards by the
// multivariate hypergeometric over weights, simulated draw by draw:
// each draw picks a shard with probability proportional to its
// remaining weight, which it then decrements. A lone weighted shard
// takes all k without consuming rng. weights is scratch.
func allocate(rng *rand.Rand, weights []int64, counts []int, k int) {
	var total int64
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		if w == total {
			counts[i] = k
			return
		}
	}
	for t := 0; t < k; t++ {
		u := rng.Int63n(total)
		for i := range weights {
			if u < weights[i] {
				counts[i]++
				weights[i]--
				break
			}
			u -= weights[i]
		}
		total--
	}
}

// mergeWindowLocked merges sliding windows by per-shard arrival order:
// each shard contributes its newest windowTakeLocked rows,
// oldest-to-newest. With balanced round-robin traffic this is the
// newest ~capacity rows of the union stream. Callers hold all shard
// locks; held is the total occupancy (> 0).
func (ing *Ingestor) mergeWindowLocked(held int) *points.Store {
	take := ing.windowTakeLocked(held)
	dim := ing.Dim()
	out := points.New(min(ing.capacity, held), dim)
	row := 0
	for i, sh := range ing.shards {
		if take[i] > 0 {
			ing.copyNewestLocked(sh, out.Data[row*dim:(row+take[i])*dim], take[i])
			row += take[i]
		}
	}
	return out
}

// windowTakeLocked splits the window merge's min(capacity, held) rows
// over the shards in proportion to their occupancy, by largest
// remainder (deterministic, no RNG — recency, not uniformity, is the
// window contract). Callers hold all shard locks; held is the total
// occupancy (> 0).
func (ing *Ingestor) windowTakeLocked(held int) []int {
	m := min(ing.capacity, held)
	take := make([]int, len(ing.shards))
	if m == held {
		for i, sh := range ing.shards {
			take[i] = sh.n
		}
	} else {
		// Largest-remainder allocation of m over shard occupancies: floor
		// the proportional quotas, then hand the leftover rows to the
		// largest fractional parts (ties to the lower shard id). A quota
		// can only have a remainder when it is strictly below the shard's
		// occupancy, so no shard is ever asked for more than it holds.
		rem := make([]int64, len(ing.shards))
		given := 0
		for i, sh := range ing.shards {
			q := int64(m) * int64(sh.n)
			take[i] = int(q / int64(held))
			rem[i] = q % int64(held)
			given += take[i]
		}
		for ; given < m; given++ {
			best := -1
			for i := range rem {
				if rem[i] > 0 && (best == -1 || rem[i] > rem[best]) {
					best = i
				}
			}
			take[best]++
			rem[best] = 0
		}
	}
	return take
}

// rankSlotLocked returns the buffer slot of a window-mode shard's held
// row of arrival rank r (0 is the oldest held row). Rows land in
// arrival order, and once the ring is full the oldest sits at slot
// seen mod cap. Callers hold sh.mu.
func (ing *Ingestor) rankSlotLocked(sh *shard, r int) int {
	if sh.n < ing.capacity {
		return r
	}
	return (int(sh.seen%int64(ing.capacity)) + r) % ing.capacity
}

// copyNewestLocked copies the newest m rows of a window-mode shard into
// dst in arrival order (oldest of the m first). They are ranks n-m ..
// n-1, a run from rank n-m's slot that wraps past the ring's end at most
// once. Callers hold sh.mu and size dst to m*dim.
func (ing *Ingestor) copyNewestLocked(sh *shard, dst []float64, m int) {
	dim := ing.Dim()
	start := ing.rankSlotLocked(sh, sh.n-m)
	k := copy(dst, sh.buf.Data[start*dim:min(start+m, ing.capacity)*dim])
	copy(dst[k:], sh.buf.Data)
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

// Seen returns the total number of rows ever ingested. Shards are read
// one at a time, so under concurrent ingest the total is advisory, not
// an atomic cut.
func (ing *Ingestor) Seen() int64 {
	var total int64
	for _, sh := range ing.shards {
		sh.mu.Lock()
		total += sh.seen
		sh.mu.Unlock()
	}
	return total
}

// Len returns the sample's current size: min(Capacity, rows held across
// shards), the number of rows Snapshot returns. Shards are read one at
// a time, like Seen.
func (ing *Ingestor) Len() int {
	held := 0
	for _, sh := range ing.shards {
		sh.mu.Lock()
		held += sh.n
		sh.mu.Unlock()
	}
	return min(ing.capacity, held)
}

// Dim returns the row width, or 0 before the first row arrives. It is
// one atomic load — Add reads it before validating a batch, so it must
// not (and does not) touch a shard mutex.
func (ing *Ingestor) Dim() int {
	return int(ing.dim.Load())
}

// Capacity returns the sample bound.
func (ing *Ingestor) Capacity() int { return ing.capacity }

// WindowMode reports whether the ingestor keeps a sliding window rather
// than a reservoir.
func (ing *Ingestor) WindowMode() bool { return ing.window }

// Shards returns the shard count K.
func (ing *Ingestor) Shards() int { return len(ing.shards) }

// ShardFills reports each shard's occupancy as a fraction of its
// capacity — the per-shard fill gauges on /metrics. Shards are read one
// at a time, like Seen.
func (ing *Ingestor) ShardFills() []float64 {
	fills := make([]float64, len(ing.shards))
	for i, sh := range ing.shards {
		sh.mu.Lock()
		fills[i] = float64(sh.n) / float64(ing.capacity)
		sh.mu.Unlock()
	}
	return fills
}

// errEmpty reports a retrain attempted before any rows arrived.
var errEmpty = errors.New("stream: no ingested rows to retrain on")
