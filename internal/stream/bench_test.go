package stream

import (
	"fmt"
	"math/rand"
	"testing"

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

// BenchmarkIngestBatch measures batch ingest cost across batch sizes,
// driven through b.RunParallel so -cpu=1,4,8 shows how the one ingest
// lock behaves under concurrent ingesters. ns/row is reported alongside
// ns/op (batches differ in size).
func BenchmarkIngestBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, batch := range []int{1, 64, 1024} {
		rows := make([][]float64, batch)
		for i := range rows {
			rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		b.Run(fmt.Sprintf("rows=%d", batch), func(b *testing.B) {
			ing, err := NewIngestor(10_000, 2, 1, false)
			if err != nil {
				b.Fatal(err)
			}
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
