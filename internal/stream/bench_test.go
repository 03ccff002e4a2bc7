package stream

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tkdc/internal/core"
)

func benchClassifier(b *testing.B) (*core.Classifier, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, 20000)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	clf, err := core.Train(rows, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return clf, rows
}

// BenchmarkScoreDirect is the reference: queries straight at the
// classifier, no handle.
func BenchmarkScoreDirect(b *testing.B) {
	clf, rows := benchClassifier(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clf.Score(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreModel measures the same queries through the live Model
// handle — the acceptance criterion is that the one extra atomic load is
// within noise of BenchmarkScoreDirect.
func BenchmarkScoreModel(b *testing.B) {
	clf, rows := benchClassifier(b)
	model := NewModel(clf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Score(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreModelParallel checks the handle does not serialize
// concurrent readers.
func BenchmarkScoreModelParallel(b *testing.B) {
	clf, rows := benchClassifier(b)
	model := NewModel(clf)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := model.Score(rows[i%len(rows)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkIngest measures reservoir ingestion throughput in rows/op
// (batches of 100).
func BenchmarkIngest(b *testing.B) {
	ing, err := NewIngestor(100_000, 2, 1, false)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	batch := make([][]float64, 100)
	for i := range batch {
		batch[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ing.Add(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestBatch measures batch ingest cost across batch sizes in
// three configurations, all driven through b.RunParallel so -cpu=1,4,8
// shows how each scales with concurrent ingesters:
//
//   - direct: one bare shard — validate, take its one lock, run the
//     ingest loop — the single-mutex ingest with nothing around it.
//     Expect flat-or-worse throughput as -cpu grows.
//   - shards=1: Ingestor.Add at K=1, which adds the width check and the
//     ticket-counter shard pick to direct. The CI ratio gate pins this
//     within 30% of direct (BenchmarkIngestK1Overhead).
//   - sharded: K=DefaultShards — the lock-striped path that should
//     scale near-linearly until memory bandwidth.
//
// ns/row is reported alongside ns/op (batches differ in size).
func BenchmarkIngestBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, batch := range []int{1, 64, 1024} {
		rows := make([][]float64, batch)
		for i := range rows {
			rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		variants := []struct {
			name  string
			build func(b *testing.B) adder
		}{
			{"direct", func(b *testing.B) adder {
				ing, err := NewIngestor(10_000, 2, 1, false)
				if err != nil {
					b.Fatal(err)
				}
				return bareShard{ing}
			}},
			{"shards=1", func(b *testing.B) adder {
				ing, err := NewIngestor(10_000, 2, 1, false)
				if err != nil {
					b.Fatal(err)
				}
				return ing
			}},
			{"sharded", func(b *testing.B) adder {
				s, err := NewShardedIngestor(10_000, 2, 1, false, 0)
				if err != nil {
					b.Fatal(err)
				}
				return s
			}},
		}
		for _, v := range variants {
			b.Run(fmt.Sprintf("rows=%d/%s", batch, v.name), func(b *testing.B) {
				ing := v.build(b)
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if _, err := ing.Add(rows); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/row")
			})
		}
	}
}

// BenchmarkIngestK1Overhead is the CI sharded-ingest-k1 gate
// (scripts/ratio_gates.json): each iteration ingests 20 000 64-row
// batches through Ingestor.Add at K=1 and as many through one bare shard
// (BenchmarkIngestBatch's direct variant), and its "ratio" is the median
// pair's time ratio. Add adds the row-width check and the ticket-counter
// shard pick.
func BenchmarkIngestK1Overhead(b *testing.B) {
	const batches = 20000
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	ingest := func(ing adder) func() {
		return func() {
			for i := 0; i < batches; i++ {
				if _, err := ing.Add(rows); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	direct, err := NewIngestor(10_000, 2, 1, false)
	if err != nil {
		b.Fatal(err)
	}
	k1, err := NewIngestor(10_000, 2, 1, false)
	if err != nil {
		b.Fatal(err)
	}
	pairedRatio(b, batches, ingest(bareShard{direct}), ingest(k1))
}

// pairedRatio times base and test, each one chunk of calls calls, in
// b.N pairs that alternate which side runs first, so a drift in host
// speed moves both sides of a pair alike. It reports the median pair's
// test/base time as "ratio", and each side's mean time per call.
func pairedRatio(b *testing.B, calls int, base, test func()) {
	timed := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	ratios := make([]float64, b.N)
	var sumBase, sumTest time.Duration
	for i := range ratios {
		var tb, tt time.Duration
		if i%2 == 0 {
			tb, tt = timed(base), timed(test)
		} else {
			tt, tb = timed(test), timed(base)
		}
		ratios[i] = float64(tt) / float64(tb)
		sumBase += tb
		sumTest += tt
	}
	slices.Sort(ratios)
	b.ReportMetric((ratios[(b.N-1)/2]+ratios[b.N/2])/2, "ratio")
	b.ReportMetric(float64(sumBase.Nanoseconds())/float64(b.N*calls), "base-ns/call")
	b.ReportMetric(float64(sumTest.Nanoseconds())/float64(b.N*calls), "test-ns/call")
}

// adder is what BenchmarkIngestBatch and BenchmarkIngestK1Overhead
// ingest through: an Ingestor, or one bare shard of it.
type adder interface {
	Add(rows [][]float64) (int, error)
}

// bareShard ingests into an Ingestor's single shard the way Add does,
// minus the width check and the shard pick: the direct variant of
// BenchmarkIngestBatch.
type bareShard struct{ *Ingestor }

func (b bareShard) Add(rows [][]float64) (int, error) {
	if err := validateRows(rows, b.Dim()); err != nil {
		return 0, err
	}
	sh := b.shards[0]
	sh.mu.Lock()
	for _, row := range rows {
		b.ingestRow(sh, row)
	}
	sh.mu.Unlock()
	return len(rows), nil
}

// BenchmarkSample watches the drift probe's sampling cost: k probe rows
// drawn from an n-row reservoir. The sparse Fisher–Yates keeps the
// allocation O(k) — before it, every probe allocated an n-entry index
// slice (800 KB per probe at n=100k) regardless of k.
func BenchmarkSample(b *testing.B) {
	const n, dim = 100_000, 2
	ing, err := NewIngestor(n, dim, 1, false)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	flat := make([]float64, n*dim)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	if _, err := ing.AddFlat(flat, dim); err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{64, 768} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s := ing.Sample(k, int64(i)); s == nil {
					b.Fatal("nil sample")
				}
			}
		})
	}
}
