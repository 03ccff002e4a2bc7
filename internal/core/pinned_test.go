package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tkdc/internal/dataset"
	"tkdc/internal/points"
)

// pinnedModel is the work and the answer bits one trained model produces
// on a fixed query set. Floats are kept as bits: the pin is exact.
type pinnedModel struct {
	TrainKernels    int64
	BootstrapRounds int
	Threshold       uint64
	ThresholdLow    uint64
	ThresholdHigh   uint64
	// Score is Stats() after scoring every query; ScoreBits digests each
	// result's Lower, Upper and Density.
	Score     Counters
	ScoreBits uint64
	// Density[i] is Stats() after DensityBounds on every query at
	// pinnedRels[i], cumulative over the earlier entries; DensityBits[i]
	// digests the returned bounds.
	Density     [3]Counters
	DensityBits [3]uint64
}

var pinnedRels = [3]float64{0.1, 0.01, 0}

// bitsDigest returns a function that folds float bits into one running
// FNV-1a hash and returns its current value.
func bitsDigest() func(...float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	return func(vs ...float64) uint64 {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		return h.Sum64()
	}
}

func pinModel(t *testing.T, data, queries [][]float64, cfg Config) pinnedModel {
	t.Helper()
	c, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := c.TrainStats()
	got := pinnedModel{
		TrainKernels:    ts.TrainKernels,
		BootstrapRounds: ts.BootstrapRounds,
		Threshold:       math.Float64bits(ts.Threshold),
		ThresholdLow:    math.Float64bits(ts.ThresholdLow),
		ThresholdHigh:   math.Float64bits(ts.ThresholdHigh),
	}
	add := bitsDigest()
	for _, q := range queries {
		r, err := c.Score(q)
		if err != nil {
			t.Fatal(err)
		}
		got.ScoreBits = add(r.Lower, r.Upper, r.Density)
	}
	got.Score = c.Stats()
	for i, rel := range pinnedRels {
		add := bitsDigest()
		for _, q := range queries {
			fl, fu, err := c.DensityBounds(q, rel)
			if err != nil {
				t.Fatal(err)
			}
			got.DensityBits[i] = add(fl, fu)
		}
		got.Density[i] = c.Stats()
	}
	return got
}

// pinnedSamplingData is a seeded d=27 set for the near-first start
// (backend "sampling"), plus 64 queries from the same distribution.
func pinnedSamplingData() (data, queries [][]float64) {
	rows := latentData(rand.New(rand.NewSource(27)), 1564, 27, 5)
	return rows[:1500], rows[1500:]
}

// pinnedRetryData is a seeded tmy3 d=8 set whose p-quantile drifts
// between bootstrap rounds faster than HBuffer covers, plus 64 queries
// from the same generator. Trained at HGrowth = 2 with seed 2 on the
// near-first start, two rounds fail on the upper side and resume on
// their samples: the first window already held 9 of the 10 u ranks and
// jumps to HBackoff·du, the second steps to HBuffer·du.
func pinnedRetryData() (data, queries [][]float64) {
	rows := dataset.TMY3(1064, 2)
	return rows[:1000], rows[1000:]
}

// pinnedShuttle2Data is the first two columns of a seeded shuttle set,
// plus 64 queries from the same generator, trained at HGrowth = 2 with
// the same seed on the tree start. At seed 3 two rounds fail on the
// lower side and re-score their samples; at seed 8 one round fails on
// the upper side, takes relaxUpper's geometric step and re-scores the
// rows at or above the failed hi, and a later one fails on the lower
// side.
func pinnedShuttle2Data(seed int64) (data, queries [][]float64) {
	rows := shuttle2(1064, seed)
	return rows[:1000], rows[1000:]
}

// shuttle2 is the first two columns of dataset.Shuttle(n, seed).
func shuttle2(n int, seed int64) [][]float64 {
	rows, err := dataset.TakeColumns(dataset.Shuttle(n, seed), 2)
	if err != nil {
		panic(err)
	}
	return rows
}

// TestPinnedWork pins the exact work and answer bits of training and
// serving on both density backends: kernel and node counts, bootstrap
// rounds, threshold bits, and digests of every returned bound. A change
// that claims to be a pure refactor of the traversal or of the training
// pipeline must leave every constant here untouched.
func TestPinnedWork(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("constants recorded on amd64; other architectures may fuse multiply-adds and round differently")
	}
	goldenData, goldenQueries := goldenDataset()
	samplingData, samplingQueries := pinnedSamplingData()
	retryData, retryQueries := pinnedRetryData()
	lowerData, lowerQueries := pinnedShuttle2Data(3)
	upperData, upperQueries := pinnedShuttle2Data(8)
	golden := goldenConfig()
	subsampled := golden
	subsampled.S0 = 100 // the bootstrap round scores a 100-row subsample
	retry := DefaultConfig()
	retry.HGrowth = 2
	retry.Seed = 2
	lower := retry
	lower.Seed = 3
	upper := retry
	upper.Seed = 8

	cases := []struct {
		name          string
		data, queries [][]float64
		cfg           Config
		want          pinnedModel
	}{
		{"tree", goldenData, goldenQueries, golden, pinnedModel{
			TrainKernels: 119193, BootstrapRounds: 1,
			Threshold: 0x3f813aadfd927710, ThresholdLow: 0x3f401690412c3904, ThresholdHigh: 0x3f8fa767af8058d0,
			Score:     Counters{Queries: 64, GridHits: 0, PointKernels: 1228, BoundKernels: 1800, NodesVisited: 482},
			ScoreBits: 0x7a97044da8189eb2,
			Density: [3]Counters{
				{Queries: 128, GridHits: 0, PointKernels: 8030, BoundKernels: 4480, NodesVisited: 1481},
				{Queries: 192, GridHits: 0, PointKernels: 17026, BoundKernels: 7520, NodesVisited: 2688},
				{Queries: 256, GridHits: 0, PointKernels: 42626, BoundKernels: 12768, NodesVisited: 5312},
			},
			DensityBits: [3]uint64{0xbd0819a9c6086fa3, 0x7a71007784a5c0b5, 0x433366bc6755b5a9},
		}},
		{"tree/S0=100", goldenData, goldenQueries, subsampled, pinnedModel{
			TrainKernels: 103325, BootstrapRounds: 1,
			Threshold: 0x3f813a4a51846867, ThresholdLow: 0x3f3d6d542efdb9d7, ThresholdHigh: 0x3f8fa6ebcb9b1926,
			Score:     Counters{Queries: 64, GridHits: 0, PointKernels: 1228, BoundKernels: 1800, NodesVisited: 482},
			ScoreBits: 0x7a97044da8189eb2,
			Density: [3]Counters{
				{Queries: 128, GridHits: 0, PointKernels: 8030, BoundKernels: 4480, NodesVisited: 1481},
				{Queries: 192, GridHits: 0, PointKernels: 17026, BoundKernels: 7520, NodesVisited: 2688},
				{Queries: 256, GridHits: 0, PointKernels: 42626, BoundKernels: 12768, NodesVisited: 5312},
			},
			DensityBits: [3]uint64{0xbd0819a9c6086fa3, 0x7a71007784a5c0b5, 0x433366bc6755b5a9},
		}},
		{"sampling/d27", samplingData, samplingQueries, golden, pinnedModel{
			TrainKernels: 491594, BootstrapRounds: 4,
			Threshold: 0x3b83053f35c969c0, ThresholdLow: 0x3b7b03518e928800, ThresholdHigh: 0x3b89c1a533bebec0,
			Score:     Counters{Queries: 64, GridHits: 0, PointKernels: 3616, BoundKernels: 1375, NodesVisited: 965},
			ScoreBits: 0xf92fddd4a794765d,
			Density: [3]Counters{
				{Queries: 128, GridHits: 0, PointKernels: 63638, BoundKernels: 4623, NodesVisited: 8455},
				{Queries: 192, GridHits: 0, PointKernels: 130696, BoundKernels: 8447, NodesVisited: 16400},
				{Queries: 256, GridHits: 0, PointKernels: 226696, BoundKernels: 13859, NodesVisited: 26142},
			},
			DensityBits: [3]uint64{0xf67b5d99da534a9, 0x9939cfee3e3bf87a, 0x54c73a67451ffc59},
		}},
		{"sampling/tmy3-retry", retryData, retryQueries, retry, pinnedModel{
			TrainKernels: 300536, BootstrapRounds: 5,
			Threshold: 0x3cfa82a2ecf89e92, ThresholdLow: 0x3cf4ba0f50048a6f, ThresholdHigh: 0x3cff726faf4fd77a,
			Score:     Counters{Queries: 64, GridHits: 0, PointKernels: 2186, BoundKernels: 856, NodesVisited: 517},
			ScoreBits: 0x4b0cd50ca9144246,
			Density: [3]Counters{
				{Queries: 128, GridHits: 0, PointKernels: 23130, BoundKernels: 2802, NodesVisited: 4362},
				{Queries: 192, GridHits: 0, PointKernels: 44485, BoundKernels: 5040, NodesVisited: 8297},
				{Queries: 256, GridHits: 0, PointKernels: 108485, BoundKernels: 11654, NodesVisited: 15448},
			},
			DensityBits: [3]uint64{0xd3238f95b37f6bbc, 0x95847804f10981b4, 0xd47c01df75c24c6d},
		}},
		{"tree/shuttle2-retry", lowerData, lowerQueries, lower, pinnedModel{
			TrainKernels: 196264, BootstrapRounds: 5,
			Threshold: 0x3f13cd6b98fc9072, ThresholdLow: 0x3edeb5177afce6b3, ThresholdHigh: 0x3f21315858ac449e,
			Score:     Counters{Queries: 64, GridHits: 38, PointKernels: 149, BoundKernels: 740, NodesVisited: 179},
			ScoreBits: 0xbdc302f05dff010c,
			Density: [3]Counters{
				{Queries: 128, GridHits: 38, PointKernels: 22147, BoundKernels: 6724, NodesVisited: 2579},
				{Queries: 192, GridHits: 38, PointKernels: 50800, BoundKernels: 13040, NodesVisited: 5406},
				{Queries: 256, GridHits: 38, PointKernels: 114800, BoundKernels: 24688, NodesVisited: 11230},
			},
			DensityBits: [3]uint64{0x6e21b93e8831cbcc, 0xae2eee238b0dd789, 0xfbfc2523d8e8c7b9},
		}},
		{"tree/shuttle2-upper", upperData, upperQueries, upper, pinnedModel{
			TrainKernels: 231855, BootstrapRounds: 5,
			Threshold: 0x3f14075c621499fd, ThresholdLow: 0x3eebcc37fe9054fe, ThresholdHigh: 0x3f2366cf1de06071,
			Score:     Counters{Queries: 64, GridHits: 39, PointKernels: 311, BoundKernels: 790, NodesVisited: 198},
			ScoreBits: 0x1a963dc63dc3dd86,
			Density: [3]Counters{
				{Queries: 128, GridHits: 39, PointKernels: 20934, BoundKernels: 6642, NodesVisited: 2538},
				{Queries: 192, GridHits: 39, PointKernels: 48397, BoundKernels: 12778, NodesVisited: 5287},
				{Queries: 256, GridHits: 39, PointKernels: 112397, BoundKernels: 24170, NodesVisited: 10983},
			},
			DensityBits: [3]uint64{0x425eb2ec30ab8f3a, 0x496c94cad3c811fc, 0xcbd0767ca68d37a5},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A resumed bootstrap attempt or full-size pass fans out a
			// sparse row list; the pin must hold at any worker count.
			for _, workers := range []int{1, 4} {
				cfg := tc.cfg
				cfg.Workers = workers
				got := pinModel(t, tc.data, tc.queries, cfg)
				if got != tc.want {
					t.Errorf("Workers %d: pinned work changed:\n got %#v\nwant %#v", workers, got, tc.want)
				}
			}
		})
	}

	probes := []struct {
		name string
		data [][]float64
		cfg  Config
		ref  int
		want uint64
	}{
		{"golden/tree", goldenData, golden, 256, 0x3f804110a8dbdccc},
		{"d27/sampling", samplingData, golden, 1024, 0x3b70fc377c8a50ad},
	}
	for _, p := range probes {
		store, err := points.FromRows(p.data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ProbeThreshold(store, p.cfg, p.ref, 128, 5)
		if err != nil {
			t.Fatal(err)
		}
		if bits := math.Float64bits(got); bits != p.want {
			t.Errorf("ProbeThreshold %s bits = %#x, want %#x", p.name, bits, p.want)
		}
	}
}
