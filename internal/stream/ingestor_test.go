package stream

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"tkdc/internal/points"
)

// indexRows builds n rows of dimension 1 whose single coordinate is the
// row's global index — a stream where every sampled row announces where
// it came from, which is what the origin-distribution tests need.
func indexRows(from, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{float64(from + i)}
	}
	return rows
}

// feedBatches pushes rows through Add in fixed-size batches.
func feedBatches(t *testing.T, add func([][]float64) (int, error), rows [][]float64, batch int) {
	t.Helper()
	for off := 0; off < len(rows); off += batch {
		end := off + batch
		if end > len(rows) {
			end = len(rows)
		}
		if _, err := add(rows[off:end]); err != nil {
			t.Fatal(err)
		}
	}
}

func storesEqual(a, b *points.Store) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Len() != b.Len() || a.Dim != b.Dim || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// digest hashes a sample's shape and every coordinate's bits, with
// seen, into a 64-bit FNV-1a fingerprint.
func digest(s *points.Store, seen int64) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(seen))
	if s != nil {
		put(uint64(s.Len()))
		put(uint64(s.Dim))
		for _, v := range s.Data {
			put(math.Float64bits(v))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestIngestorDigests pins the sample's bits to those recorded at the
// code before the single-lock ingestor and the shard wrapper became one
// type (ad1e49b), which the one-lock ingestor must keep: the
// determinism bridge and every retrain input rest on them. A 256-row
// ingestor is fed 100 rows (fill phase) or 3000 rows (after eviction)
// in 37-row batches, and Snapshot and both Samples must match in both
// modes. The subtest names keep the K=1 of the striped ingestor's
// single-shard cases they were recorded as.
func TestIngestorDigests(t *testing.T) {
	cases := []struct {
		window              bool
		rows                int
		snapshot, s50, s300 string
	}{
		{false, 100, "54daffbd961a16d9", "6e49475e0c184989", "a97563b3cf6a28d5"},
		{false, 3000, "cf2f1b9d6d8efdbb", "54de053e80cf3281", "019ca28310c5cef6"},
		{true, 100, "54daffbd961a16d9", "6e49475e0c184989", "a97563b3cf6a28d5"},
		{true, 3000, "27619403be8d160f", "730e46bb258b9874", "ef02bbb371ae6c76"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("K=1/window=%v/rows=%d", c.window, c.rows), func(t *testing.T) {
			ing, err := NewIngestor(256, 0, 11, c.window)
			if err != nil {
				t.Fatal(err)
			}
			feedBatches(t, ing.Add, gauss2D(c.rows, 5, 1), 37)
			snap, seen := ing.Snapshot()
			got := []string{digest(snap, seen), digest(ing.Sample(50, 99), 0), digest(ing.Sample(300, 7), 0)}
			for i, want := range []string{c.snapshot, c.s50, c.s300} {
				if got[i] != want {
					t.Errorf("%s digest = %s, want %s", []string{"Snapshot", "Sample(50, 99)", "Sample(300, 7)"}[i], got[i], want)
				}
			}
		})
	}
}

// TestShardedMergeDeterministic pins the reproducibility contract: two
// ingestors built alike and fed the same batches hold byte-identical
// samples, and re-snapshotting an idle ingestor is a no-op on the
// result — Sample's generator is per call, never shared state.
func TestShardedMergeDeterministic(t *testing.T) {
	for _, window := range []bool{false, true} {
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			const cap, seed = 300, 21
			build := func() *Ingestor {
				s, err := NewIngestor(cap, 1, seed, window)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			a, b := build(), build()
			rows := indexRows(0, 5000)
			feedBatches(t, a.Add, rows, 64)
			feedBatches(t, b.Add, rows, 64)

			as, an := a.Snapshot()
			bs, bn := b.Snapshot()
			if an != bn || !storesEqual(as, bs) {
				t.Fatal("identically fed ingestors diverge at Snapshot")
			}
			if as.Len() != cap {
				t.Fatalf("snapshot holds %d rows, want capacity %d", as.Len(), cap)
			}
			again, _ := a.Snapshot()
			if !storesEqual(as, again) {
				t.Fatal("back-to-back snapshots of an idle ingestor differ")
			}
			if !storesEqual(a.Sample(100, 7), b.Sample(100, 7)) {
				t.Fatal("identically fed ingestors diverge at Sample")
			}
		})
	}
}

// TestShardedMergeDistinct checks the reservoir samples without
// replacement: every row of the stream appears at most once.
func TestShardedMergeDistinct(t *testing.T) {
	s, err := NewIngestor(400, 1, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	feedBatches(t, s.Add, indexRows(0, 6000), 50)
	snap, _ := s.Snapshot()
	seen := make(map[float64]bool, snap.Len())
	for i := 0; i < snap.Len(); i++ {
		v := snap.Row(i)[0]
		if seen[v] {
			t.Fatalf("row %v sampled twice", v)
		}
		seen[v] = true
	}
}

// TestShardedMergeUniform is the statistical acceptance test: the
// reservoir over an ingest of N distinct rows should be uniform over
// the stream. Chi-square over 10 equal origin bins; the draw is
// deterministic (fixed seeds), so this never flakes; the threshold is
// the p=0.001 critical value with generous headroom checked at seed
// time.
func TestShardedMergeUniform(t *testing.T) {
	const (
		cap   = 400
		total = 8000
		bins  = 10
	)
	// Aggregate over several independent ingestors so one unlucky draw
	// cannot dominate; the sum of chi-squares is chi-square with summed
	// degrees of freedom.
	const runs = 5
	var binStat float64
	for r := 0; r < runs; r++ {
		s, err := NewIngestor(cap, 1, int64(100+r), false)
		if err != nil {
			t.Fatal(err)
		}
		feedBatches(t, s.Add, indexRows(0, total), 1)
		snap, seen := s.Snapshot()
		if seen != total || snap.Len() != cap {
			t.Fatalf("run %d: seen=%d len=%d, want %d/%d", r, seen, snap.Len(), total, cap)
		}
		binCounts := make([]int, bins)
		for i := 0; i < cap; i++ {
			binCounts[int(snap.Row(i)[0])/(total/bins)]++
		}
		const expected = float64(cap) / bins
		for _, c := range binCounts {
			d := float64(c) - expected
			binStat += d * d / expected
		}
	}
	// p=0.001 critical value: chi2(df=45) ≈ 80.1.
	if binStat > 80.1 {
		t.Fatalf("origin-bin chi-square %.1f exceeds the df=45 p=0.001 critical value: sample is not uniform over the stream", binStat)
	}
}

// TestShardedFillPhase checks the no-eviction regime: while the stream
// fits in capacity, the snapshot is exactly the ingested rows in
// arrival order — nothing sampled away, nothing duplicated. This is
// what keeps the determinism bridge exact.
func TestShardedFillPhase(t *testing.T) {
	const cap, n = 500, 300
	s, err := NewIngestor(cap, 1, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	feedBatches(t, s.Add, indexRows(0, n), 17)
	snap, seen := s.Snapshot()
	if seen != n || snap.Len() != n {
		t.Fatalf("seen=%d len=%d, want %d rows", seen, snap.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v := snap.Row(i)[0]; v != float64(i) {
			t.Fatalf("fill-phase snapshot row %d = %v, want %d", i, v, i)
		}
	}
}

// TestShardedWindowMerge checks window mode after the ring wraps:
// Snapshot joins the ring's two runs into the newest capacity rows,
// oldest to newest, and the drift probe reads the rows a retrain sees —
// every Sample row is a Snapshot row.
func TestShardedWindowMerge(t *testing.T) {
	const cap, n = 100, 1037
	s, err := NewIngestor(cap, 1, 9, true)
	if err != nil {
		t.Fatal(err)
	}
	feedBatches(t, s.Add, indexRows(0, n), 1)
	snap, seen := s.Snapshot()
	if seen != n || snap.Len() != cap {
		t.Fatalf("seen=%d len=%d, want seen=%d len=%d", seen, snap.Len(), n, cap)
	}
	for i := 0; i < cap; i++ {
		if v, want := snap.Row(i)[0], float64(n-cap+i); v != want {
			t.Fatalf("window row %d = %v, want %v", i, v, want)
		}
	}
	sample := s.Sample(30, 3)
	for i := 0; i < sample.Len(); i++ {
		if v := sample.Row(i)[0]; v < float64(n-cap) {
			t.Fatalf("Sample row %v is older than Snapshot's oldest row %d", v, n-cap)
		}
	}
}

// TestShardedDimAgreement checks the width contract of an ingestor
// built without one: the first batch fixes the dimensionality, and a
// batch of a different width is rejected through Add and AddFlat.
func TestShardedDimAgreement(t *testing.T) {
	s, err := NewIngestor(100, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add([][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add([][]float64{{1, 2, 3}}); err == nil {
		t.Fatal("a 3-wide batch was accepted after a 2-wide batch fixed the width")
	}
	if _, err := s.AddFlat([]float64{1, 2, 3}, 3); err == nil {
		t.Fatal("a 3-wide flat batch was accepted after a 2-wide batch fixed the width")
	}
	if s.Dim() != 2 {
		t.Fatalf("Dim() = %d, want 2", s.Dim())
	}
}

// TestShardedConfigValidation pins the constructor's edges.
func TestShardedConfigValidation(t *testing.T) {
	if _, err := NewIngestor(0, 2, 1, false); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	if _, err := NewIngestor(100, -1, 1, false); err == nil {
		t.Fatal("negative dimension accepted")
	}
}

// TestShardedHammer drives concurrent Adds, Snapshots, and Samples
// under -race: no row count is ever lost and every view stays
// well-formed while ingest churns.
func TestShardedHammer(t *testing.T) {
	const cap, writers, batches, batchRows = 512, 8, 50, 20
	s, err := NewIngestor(cap, 2, 13, false)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < batches; i++ {
				batch := make([][]float64, batchRows)
				for j := range batch {
					batch[j] = []float64{rng.NormFloat64(), rng.NormFloat64()}
				}
				if _, err := s.Add(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // concurrent readers
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if snap, seen := s.Snapshot(); snap != nil {
				if snap.Dim != 2 || int64(snap.Len()) > seen || snap.Len() > cap {
					t.Errorf("malformed snapshot: len=%d dim=%d seen=%d", snap.Len(), snap.Dim, seen)
					return
				}
			}
			if probe := s.Sample(64, int64(i)); probe != nil && probe.Dim != 2 {
				t.Errorf("malformed probe sample: dim=%d", probe.Dim)
				return
			}
		}
	}()
	wg.Wait()
	const total = writers * batches * batchRows
	if s.Seen() != total {
		t.Fatalf("Seen() = %d after concurrent ingest, want %d", s.Seen(), total)
	}
	if s.Len() != cap {
		t.Fatalf("Len() = %d, want capacity %d", s.Len(), cap)
	}
	snap, seen := s.Snapshot()
	if seen != total || snap.Len() != cap {
		t.Fatalf("final snapshot: len=%d seen=%d, want %d/%d", snap.Len(), seen, cap, total)
	}
}

// FuzzIngestBatch is the ingest-validation target. Two ingestors built
// alike take the same batches decoded from the fuzz bytes, A through
// Add and B through AddFlat wherever a batch is non-empty rows of one
// width. Every batch must be accepted whole (Seen grows by its rows,
// Len is min(capacity, Seen), every held coordinate is finite) or
// rejected whole (Seen, Len and Dim unchanged), without a panic; Add
// and AddFlat must agree on acceptance and error text, and so the two
// samples stay bit-identical.
//
// Byte 0 sets the capacity (1 + b&15), window mode (b&16) and the
// construction width ((b>>5)%3, 0 inferring it). Each batch then reads
// a header h: the call (h&3: 0 Add on both, 2 AddFlat on both with the
// dim argument read as the next int8 % 5, otherwise Add against
// AddFlat), the width ((h>>2)&3, so 0 is a zero width), the row count
// ((h>>4)&7) and, with h&0x80, a ragged batch whose rows read their own
// widths. A coordinate byte is NaN (0), +Inf (1), −Inf (2) or int8/4.
func FuzzIngestBatch(f *testing.F) {
	// TestIngestRejectsBatchWhole: a 2-wide batch with a NaN coordinate
	// into a 2-wide ingestor, then a 3-wide row.
	f.Add([]byte{0x49, 0x29, 4, 8, 12, 0, 0x1d, 4, 8, 12})
	// TestShardedDimAgreement: a 2-wide batch fixes the width of an
	// ingestor built without one, then a 3-wide Add and a 3-wide AddFlat.
	f.Add([]byte{0x0f, 0x18, 4, 8, 0x1c, 4, 8, 12, 0x1e, 3, 4, 8, 12})
	// Add against AddFlat on a 2-wide ingestor: a 3-wide batch, an ±Inf
	// batch, then a good one.
	f.Add([]byte{0x49, 0x1d, 4, 8, 12, 0x29, 1, 4, 2, 4, 0x29, 4, 8, 12, 16})
	// A ragged batch, a zero-width batch, an empty batch, AddFlat with a
	// zero, a negative and a non-dividing dim argument, then a good one.
	f.Add([]byte{0x0f, 0xa8, 2, 4, 8, 1, 4, 0x10, 0x09, 0x26, 0, 4, 8, 0x26, 0xfd, 4, 8, 0x26, 3, 4, 8, 0x26, 2, 4, 8})
	// A 2-row window ring that wraps, then a width change.
	f.Add([]byte{0x11, 0x75, 4, 8, 12, 16, 20, 24, 28, 0x19, 4, 8, 0x15, 4})

	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 4
			}
			b := data[0]
			data = data[1:]
			return b
		}
		coord := func() float64 {
			switch b := next(); b {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			default:
				return float64(int8(b)) / 4
			}
		}
		b0 := next()
		build := func() *Ingestor {
			ing, err := NewIngestor(1+int(b0&15), int(b0>>5)%3, 7, b0&16 != 0)
			if err != nil {
				t.Fatal(err)
			}
			return ing
		}
		a, b := build(), build()

		// apply runs one call on ing that offers rows rows of width
		// width and checks it was applied or rejected whole.
		apply := func(ing *Ingestor, rows, width int, add func() (int, error)) (int, error) {
			seen, held := ing.Counts()
			dim := ing.Dim()
			n, err := add()
			seen2, held2 := ing.Counts()
			switch {
			case err != nil && (n != 0 || seen2 != seen || held2 != held || ing.Dim() != dim):
				t.Fatalf("rejected batch (%v) changed the sample: n=%d seen %d→%d held %d→%d dim %d→%d", err, n, seen, seen2, held, held2, dim, ing.Dim())
			case err == nil && (n != rows || seen2 != seen+int64(n) || held2 != min(ing.Capacity(), int(seen2))):
				t.Fatalf("accepted %d of %d rows: seen %d→%d held %d→%d", n, rows, seen, seen2, held, held2)
			case err == nil && n > 0 && ing.Dim() != width, err == nil && n == 0 && ing.Dim() != dim:
				t.Fatalf("accepted %d rows of width %d: dim %d→%d", n, width, dim, ing.Dim())
			}
			return n, err
		}

		// Past 32 batches an input only revisits states a shorter one
		// reaches (the capacity is at most 16 rows), and a long tail would
		// slow every execution.
		for batch := 0; batch < 32 && len(data) > 0; batch++ {
			h := next()
			width, nrows := int(h>>2)&3, int(h>>4)&7
			if h&3 == 2 {
				dim := int(int8(next())) % 5
				flat := make([]float64, nrows*width)
				for i := range flat {
					flat[i] = coord()
				}
				rows := 0
				if dim > 0 {
					rows = len(flat) / dim
				}
				apply(a, rows, dim, func() (int, error) { return a.AddFlat(flat, dim) })
				apply(b, rows, dim, func() (int, error) { return b.AddFlat(flat, dim) })
			} else {
				rows := make([][]float64, nrows)
				var flat []float64
				equal := nrows > 0 && width > 0
				for i := range rows {
					w := width
					if h&0x80 != 0 {
						w = int(next()) & 3
						equal = equal && w == width
					}
					rows[i] = make([]float64, w)
					for j := range rows[i] {
						rows[i][j] = coord()
					}
					flat = append(flat, rows[i]...)
				}
				if nrows > 0 {
					width = len(rows[0])
				}
				na, errA := apply(a, nrows, width, func() (int, error) { return a.Add(rows) })
				addB := func() (int, error) { return b.Add(rows) }
				if h&3 != 0 && equal {
					addB = func() (int, error) { return b.AddFlat(flat, width) }
				}
				nb, errB := apply(b, nrows, width, addB)
				if na != nb || fmt.Sprint(errA) != fmt.Sprint(errB) {
					t.Fatalf("Add = (%d, %v), the other call = (%d, %v)", na, errA, nb, errB)
				}
			}

			snapA, seenA := a.Snapshot()
			snapB, seenB := b.Snapshot()
			if seenA != seenB || a.Dim() != b.Dim() || !storesEqual(snapA, snapB) {
				t.Fatalf("samples diverge: seen %d and %d, dim %d and %d", seenA, seenB, a.Dim(), b.Dim())
			}
			if held := a.Len(); (snapA == nil) != (held == 0) || (snapA != nil && snapA.Len() != held) {
				t.Fatalf("Snapshot does not hold Len() = %d rows", held)
			}
			if snapA != nil {
				if err := snapA.CheckFinite(); err != nil {
					t.Fatalf("sample holds a non-finite coordinate: %v", err)
				}
			}
			if got, want := a.Sample(3, 5), min(3, a.Len()); (got == nil) != (want == 0) || (got != nil && got.Len() != want) {
				t.Fatalf("Sample(3) returned %v rows, want %d", got, want)
			}
		}
	})
}
