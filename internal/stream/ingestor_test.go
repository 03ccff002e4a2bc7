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

// feedBatches pushes rows through Add in fixed-size batches, returning
// how many rows went in. Sequential feeding fixes the batch→shard
// assignment (the ticket counter is deterministic), which is the
// precondition for the determinism properties below.
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

// TestIngestorDigests pins the sample's bits to those of the code
// before the single-shard ingestor and the shard wrapper became one
// type: the digests were recorded at that code (ad1e49b). A 256-row
// ingestor is fed 100 rows (fill phase) or 3000 rows (after eviction)
// in 37-row batches. At K = 1 Snapshot and both Samples must match in
// both modes — the determinism bridge and every retrain input rest on
// it. At K > 1 Snapshot must match; K > 1 Sample is pinned only where
// it did not move (the fill phase, and window mode's Sample(50, 99)),
// because Sample now weights reservoir shards by rows seen and returns
// at most Len() rows. Window mode's K > 1 Sample(50, 99) after eviction
// was re-recorded when Sample began drawing from the rows Snapshot
// keeps rather than every held row.
func TestIngestorDigests(t *testing.T) {
	cases := []struct {
		shards              int
		window              bool
		rows                int
		snapshot, s50, s300 string // "" where the digest moved on purpose
	}{
		{1, false, 100, "54daffbd961a16d9", "6e49475e0c184989", "a97563b3cf6a28d5"},
		{1, false, 3000, "cf2f1b9d6d8efdbb", "54de053e80cf3281", "019ca28310c5cef6"},
		{1, true, 100, "54daffbd961a16d9", "6e49475e0c184989", "a97563b3cf6a28d5"},
		{1, true, 3000, "27619403be8d160f", "730e46bb258b9874", "ef02bbb371ae6c76"},
		{2, false, 100, "ca17166f60208f11", "87202bcf1d45b51d", "b4209a4cbc33571d"},
		{2, false, 3000, "d07ec33beb497acf", "", ""},
		{2, true, 100, "ca17166f60208f11", "87202bcf1d45b51d", "b4209a4cbc33571d"},
		{2, true, 3000, "820bd5f9cafeba73", "15eb4c5808cb872d", ""},
		{3, false, 100, "54daffbd961a16d9", "18bded97e79cf1c1", "a97563b3cf6a28d5"},
		{3, false, 3000, "b6d6e14a5dfaf557", "", ""},
		{3, true, 100, "54daffbd961a16d9", "18bded97e79cf1c1", "a97563b3cf6a28d5"},
		{3, true, 3000, "fe4769f2a0623466", "01b267b4332bfa30", ""},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("K=%d/window=%v/rows=%d", c.shards, c.window, c.rows), func(t *testing.T) {
			ing, err := NewShardedIngestor(256, 0, 11, c.window, c.shards)
			if err != nil {
				t.Fatal(err)
			}
			feedBatches(t, ing.Add, gauss2D(c.rows, 5, 1), 37)
			snap, seen := ing.Snapshot()
			got := []string{digest(snap, seen), digest(ing.Sample(50, 99), 0), digest(ing.Sample(300, 7), 0)}
			for i, want := range []string{c.snapshot, c.s50, c.s300} {
				if want != "" && got[i] != want {
					t.Errorf("%s digest = %s, want %s", []string{"Snapshot", "Sample(50, 99)", "Sample(300, 7)"}[i], got[i], want)
				}
			}
		})
	}
}

// TestSampleWeightsShardsBySeen pins the drift probe's input at K > 1
// on a skewed feed: 1000-row and 10-row batches alternate, so shard 1
// sees 200 of 20 200 rows (~1%) but holds as many rows as shard 0. A
// Sample weighted by occupancy takes ~45% of its rows from shard 1;
// weighted by rows seen, as Snapshot is, it takes ~1%. Sample also
// returns at most Len() rows, not up to K × capacity.
func TestSampleWeightsShardsBySeen(t *testing.T) {
	const cap, pairs, big, small = 256, 20, 1000, 10
	s, err := NewShardedIngestor(cap, 1, 1, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pairs; p++ {
		// Row i carries its index; the 10-row batches land on shard 1.
		if _, err := s.Add(indexRows(p*(big+small), big)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Add(indexRows(p*(big+small)+big, small)); err != nil {
			t.Fatal(err)
		}
	}
	fromShard1 := func(v float64) bool { return int(v)%(big+small) >= big }

	// Twenty probes of 200 rows: 4000 draws, ~39.6 expected from shard
	// 1 (sd ~6.3); the bounds sit five standard deviations out.
	drawn := 0
	for seed := int64(1); seed <= 20; seed++ {
		sample := s.Sample(200, seed)
		for i := 0; i < sample.Len(); i++ {
			if fromShard1(sample.Row(i)[0]) {
				drawn++
			}
		}
	}
	if drawn < 8 || drawn > 71 {
		t.Fatalf("Sample drew %d of 4000 rows from shard 1, want ~40: it saw %d of %d rows", drawn, pairs*small, pairs*(big+small))
	}
	if got, want := s.Sample(400, 3).Len(), s.Len(); got > want {
		t.Fatalf("Sample(400) returned %d rows, more than Len() = %d", got, want)
	}
}

// TestShardedSnapshotWithUnfedShards checks an ingestor built without a
// width whose batches have not yet reached every shard: the shards
// that never saw a batch have no buffer, and Snapshot and Sample must
// skip them rather than read through it.
func TestShardedSnapshotWithUnfedShards(t *testing.T) {
	for _, window := range []bool{false, true} {
		s, err := NewShardedIngestor(100, 0, 1, window, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Add([][]float64{{1, 2}, {3, 4}}); err != nil {
			t.Fatal(err)
		}
		snap, seen := s.Snapshot()
		if seen != 2 || snap.Len() != 2 || snap.Row(1)[1] != 4 {
			t.Fatalf("window=%v: snapshot len=%d seen=%d, want both rows", window, snap.Len(), seen)
		}
		if got := s.Sample(1, 1).Len(); got != 1 {
			t.Fatalf("window=%v: Sample(1) returned %d rows", window, got)
		}
	}
}

// TestShardedMergeDeterministic pins the reproducibility contract for
// K > 1: for a fixed batch→shard assignment (any sequential feed), two
// ingestors built alike hold byte-identical merged samples, and
// re-snapshotting an idle ingestor is a no-op on the result — the merge
// RNG is per-call, never shared state.
func TestShardedMergeDeterministic(t *testing.T) {
	for _, window := range []bool{false, true} {
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			const cap, seed, shards = 300, 21, 4
			build := func() *Ingestor {
				s, err := NewShardedIngestor(cap, 1, seed, window, shards)
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
				t.Fatal("identically fed K-shard ingestors diverge at Snapshot")
			}
			if as.Len() != cap {
				t.Fatalf("merged snapshot holds %d rows, want capacity %d", as.Len(), cap)
			}
			again, _ := a.Snapshot()
			if !storesEqual(as, again) {
				t.Fatal("back-to-back snapshots of an idle ingestor differ: the merge perturbs shard state")
			}
			if !storesEqual(a.Sample(100, 7), b.Sample(100, 7)) {
				t.Fatal("identically fed K-shard ingestors diverge at Sample")
			}
		})
	}
}

// TestShardedMergeDistinct checks the merged reservoir draws without
// replacement: every row of the union stream appears at most once.
func TestShardedMergeDistinct(t *testing.T) {
	s, err := NewShardedIngestor(400, 1, 3, false, 4)
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
// merged reservoir over a K-shard ingest of N distinct rows should be
// uniform over the stream. Chi-square over 10 equal origin bins, and —
// because shard boundaries are the failure mode sharding could
// introduce — over per-shard origin counts too. The draw is
// deterministic (fixed seeds), so this never flakes; thresholds are the
// p=0.001 critical values with generous headroom checked at seed time.
func TestShardedMergeUniform(t *testing.T) {
	const (
		cap    = 400
		total  = 8000
		shards = 4
		bins   = 10
	)
	chi2 := func(counts []int, expected float64) float64 {
		var x float64
		for _, c := range counts {
			d := float64(c) - expected
			x += d * d / expected
		}
		return x
	}

	// Aggregate over several independent ingestors so one unlucky draw
	// cannot dominate; the sum of chi-squares is chi-square with summed
	// degrees of freedom.
	const runs = 5
	var binStat, shardStat float64
	for r := 0; r < runs; r++ {
		s, err := NewShardedIngestor(cap, 1, int64(100+r), false, shards)
		if err != nil {
			t.Fatal(err)
		}
		// 1-row batches: the ticket assigns row i to shard i%shards, so a
		// row's shard is its index mod shards.
		feedBatches(t, s.Add, indexRows(0, total), 1)
		snap, seen := s.Snapshot()
		if seen != total || snap.Len() != cap {
			t.Fatalf("run %d: seen=%d len=%d, want %d/%d", r, seen, snap.Len(), total, cap)
		}
		binCounts := make([]int, bins)
		shardCounts := make([]int, shards)
		for i := 0; i < cap; i++ {
			idx := int(snap.Row(i)[0])
			binCounts[idx/(total/bins)]++
			shardCounts[idx%shards]++
		}
		binStat += chi2(binCounts, float64(cap)/bins)
		shardStat += chi2(shardCounts, float64(cap)/shards)
	}
	// p=0.001 critical values: chi2(df=45) ≈ 80.1, chi2(df=15) ≈ 37.7.
	if binStat > 80.1 {
		t.Fatalf("origin-bin chi-square %.1f exceeds the df=45 p=0.001 critical value: merged sample is not uniform over the stream", binStat)
	}
	if shardStat > 37.7 {
		t.Fatalf("shard-origin chi-square %.1f exceeds the df=15 p=0.001 critical value: merge is biased across shards", shardStat)
	}
}

// TestShardedFillPhase checks the no-eviction regime: while the union
// stream fits in capacity, the merged snapshot is exactly the ingested
// rows — nothing sampled away, nothing duplicated. This is what keeps
// the determinism bridge exact for K=1 and extends the "reservoir
// covers the stream" guarantee to K>1 (as a set; arrival order is
// per-shard).
func TestShardedFillPhase(t *testing.T) {
	const cap, n = 500, 300
	s, err := NewShardedIngestor(cap, 1, 5, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	feedBatches(t, s.Add, indexRows(0, n), 17)
	snap, seen := s.Snapshot()
	if seen != n || snap.Len() != n {
		t.Fatalf("seen=%d len=%d, want %d rows", seen, snap.Len(), n)
	}
	got := make(map[float64]bool, n)
	for i := 0; i < n; i++ {
		got[snap.Row(i)[0]] = true
	}
	for i := 0; i < n; i++ {
		if !got[float64(i)] {
			t.Fatalf("fill-phase snapshot lost row %d", i)
		}
	}
}

// TestShardedWindowMerge checks window-mode semantics at K>1: the merge
// keeps the newest rows of each shard in per-shard arrival order, with
// slots allocated proportionally to occupancy. With balanced 1-row
// round-robin traffic that is exactly the newest capacity rows of the
// union stream (as a set).
func TestShardedWindowMerge(t *testing.T) {
	const cap, n, shards = 100, 300, 2
	s, err := NewShardedIngestor(cap, 1, 9, true, shards)
	if err != nil {
		t.Fatal(err)
	}
	feedBatches(t, s.Add, indexRows(0, n), 1)
	snap, seen := s.Snapshot()
	if seen != n || snap.Len() != cap {
		t.Fatalf("seen=%d len=%d, want seen=%d len=%d", seen, snap.Len(), n, cap)
	}
	// Row i went to shard i%2; each shard holds its newest 100 of 150 and
	// contributes its newest 50. So the merged window must be exactly the
	// global newest 100 rows {200..299}, each shard's run ascending.
	got := make(map[float64]bool, cap)
	for i := 0; i < cap; i++ {
		got[snap.Row(i)[0]] = true
	}
	for v := n - cap; v < n; v++ {
		if !got[float64(v)] {
			t.Fatalf("window merge dropped recent row %d", v)
		}
	}
	for i := 1; i < cap/shards; i++ {
		if snap.Row(i)[0] <= snap.Row(i - 1)[0] {
			t.Fatalf("shard run not in arrival order at merged row %d", i)
		}
	}

	// The drift probe must read the rows a retrain sees: after eviction,
	// every Sample row is a Snapshot row, though each shard holds more
	// rows than the merged window keeps.
	for _, k := range []int{2, 3} {
		s, err := NewShardedIngestor(cap, 1, 9, true, k)
		if err != nil {
			t.Fatal(err)
		}
		feedBatches(t, s.Add, indexRows(0, 1000), 1)
		snap, _ := s.Snapshot()
		inSnap := make(map[float64]bool, snap.Len())
		for i := 0; i < snap.Len(); i++ {
			inSnap[snap.Row(i)[0]] = true
		}
		sample := s.Sample(100, 3)
		for i := 0; i < sample.Len(); i++ {
			if v := sample.Row(i)[0]; !inSnap[v] {
				t.Fatalf("K=%d: Sample row %v is not in Snapshot", k, v)
			}
		}
	}
}

// TestShardedDimAgreement checks the cross-shard width race: once any
// batch fixes the dimensionality, a batch of a different width is
// rejected even though it would land on a different — still empty —
// shard.
func TestShardedDimAgreement(t *testing.T) {
	s, err := NewShardedIngestor(100, 0, 1, false, 4)
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
	if _, err := NewShardedIngestor(100, 2, 1, false, -1); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := NewShardedIngestor(100, 2, 1, false, maxShards+1); err == nil {
		t.Fatal("absurd shard count accepted")
	}
	s, err := NewShardedIngestor(100, 2, 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Shards(), DefaultShards(); got != want {
		t.Fatalf("shards=0 resolved to %d, want DefaultShards()=%d", got, want)
	}
	if d := DefaultShards(); d < 1 || d > maxShards {
		t.Fatalf("DefaultShards() = %d, outside [1, %d]", d, maxShards)
	}
	if fills := s.ShardFills(); len(fills) != s.Shards() {
		t.Fatalf("ShardFills() has %d entries, want %d", len(fills), s.Shards())
	}
}

// TestShardedHammer drives concurrent Adds, Snapshots, and Samples at
// K=4 under -race: no row count is ever lost (the per-shard seen totals
// must sum to everything ingested) and every merged view stays
// well-formed while ingest churns.
func TestShardedHammer(t *testing.T) {
	const cap, shards, writers, batches, batchRows = 512, 4, 8, 50, 20
	s, err := NewShardedIngestor(cap, 2, 13, false, shards)
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
	go func() { // concurrent merged readers
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

// TestSampleSparseMatchesDense pins the RNG compatibility of the sparse
// Fisher–Yates: for the same seed, Sample must emit exactly the rows the
// dense index-permutation shuffle used to emit — the drift probe's
// fixed-seed behaviour is part of the determinism surface. The dense
// reference is reimplemented here as the oracle.
func TestSampleSparseMatchesDense(t *testing.T) {
	const n, k, seed = 5000, 100, 17 // k*4 < n forces the sparse path
	ing, err := NewIngestor(n, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	feedBatchesB := indexRows(0, n)
	if _, err := ing.Add(feedBatchesB); err != nil {
		t.Fatal(err)
	}
	got := ing.Sample(k, seed)

	rng := rand.New(rand.NewSource(seed))
	idx := make([]int, n)
	for j := range idx {
		idx[j] = j
	}
	for j := 0; j < k; j++ {
		l := j + rng.Intn(n-j)
		idx[j], idx[l] = idx[l], idx[j]
		if want, have := float64(idx[j]), got.Row(j)[0]; want != have {
			t.Fatalf("draw %d: sparse sample emitted row %v, dense oracle says %v", j, have, want)
		}
	}
}
