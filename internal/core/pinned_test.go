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

// pinnedSamplingData is a seeded d=27 set large enough (n > 512) that
// the sampling backend runs its near phase and samples the far field,
// plus 64 queries from the same distribution.
func pinnedSamplingData() (data, queries [][]float64) {
	rows := latentData(rand.New(rand.NewSource(27)), 1564, 27, 5)
	return rows[:1500], rows[1500:]
}

// pinnedRetryData is a seeded tmy3 d=8 set whose p-quantile drifts
// between bootstrap rounds faster than HBuffer covers, plus 64 queries
// from the same generator. Trained at HGrowth = 2 with seed 2, two of
// its rounds fail on the upper side and retry one geometric step.
func pinnedRetryData() (data, queries [][]float64) {
	rows := dataset.TMY3(1064, 2)
	return rows[:1000], rows[1000:]
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
	tree := goldenConfig()
	tree.Backend = BackendTree
	subsampled := tree
	subsampled.S0 = 100 // the bootstrap round scores a 100-row subsample
	sampling := goldenConfig()
	sampling.Backend = BackendSampling
	retry := DefaultConfig()
	retry.Backend = BackendTree
	retry.HGrowth = 2
	retry.Seed = 2

	cases := []struct {
		name          string
		data, queries [][]float64
		cfg           Config
		want          pinnedModel
	}{
		{"tree", goldenData, goldenQueries, tree, pinnedModel{
			TrainKernels: 119053, BootstrapRounds: 1,
			Threshold: 0x3f813aadfd92770e, ThresholdLow: 0x3f401690412c3904, ThresholdHigh: 0x3f8fa767af8058d0,
			Score:     Counters{Queries: 64, GridHits: 0, PointKernels: 1228, BoundKernels: 1800, NodesVisited: 482, SamplingRounds: 0, SampledPoints: 0},
			ScoreBits: 0x6c583ee49c86bc0a,
			Density: [3]Counters{
				{Queries: 128, GridHits: 0, PointKernels: 8030, BoundKernels: 4480, NodesVisited: 1481, SamplingRounds: 0, SampledPoints: 0},
				{Queries: 192, GridHits: 0, PointKernels: 17026, BoundKernels: 7520, NodesVisited: 2688, SamplingRounds: 0, SampledPoints: 0},
				{Queries: 256, GridHits: 0, PointKernels: 42626, BoundKernels: 12768, NodesVisited: 5312, SamplingRounds: 0, SampledPoints: 0},
			},
			DensityBits: [3]uint64{0x6515efb0fd8ac52, 0x3b1745a7826a0a5e, 0x57783ceecfbc50f4},
		}},
		{"tree/S0=100", goldenData, goldenQueries, subsampled, pinnedModel{
			TrainKernels: 103234, BootstrapRounds: 1,
			Threshold: 0x3f813a4a51846864, ThresholdLow: 0x3f3d6d542efdb9ff, ThresholdHigh: 0x3f8fa6ebcb9b1924,
			Score:     Counters{Queries: 64, GridHits: 0, PointKernels: 1228, BoundKernels: 1800, NodesVisited: 482, SamplingRounds: 0, SampledPoints: 0},
			ScoreBits: 0x6c583ee49c86bc0a,
			Density: [3]Counters{
				{Queries: 128, GridHits: 0, PointKernels: 8030, BoundKernels: 4480, NodesVisited: 1481, SamplingRounds: 0, SampledPoints: 0},
				{Queries: 192, GridHits: 0, PointKernels: 17026, BoundKernels: 7520, NodesVisited: 2688, SamplingRounds: 0, SampledPoints: 0},
				{Queries: 256, GridHits: 0, PointKernels: 42626, BoundKernels: 12768, NodesVisited: 5312, SamplingRounds: 0, SampledPoints: 0},
			},
			DensityBits: [3]uint64{0x6515efb0fd8ac52, 0x3b1745a7826a0a5e, 0x57783ceecfbc50f4},
		}},
		{"sampling/d27", samplingData, samplingQueries, sampling, pinnedModel{
			TrainKernels: 1869614, BootstrapRounds: 3,
			Threshold: 0x3b82fee2924ce4c0, ThresholdLow: 0x3b7af88e1ba80780, ThresholdHigh: 0x3b8977f838a480a0,
			Score:     Counters{Queries: 64, GridHits: 0, PointKernels: 9338, BoundKernels: 1243, NodesVisited: 914, SamplingRounds: 19, SampledPoints: 6144},
			ScoreBits: 0x3ff3e84e5667cfe5,
			Density: [3]Counters{
				{Queries: 128, GridHits: 0, PointKernels: 134709, BoundKernels: 3447, NodesVisited: 7950, SamplingRounds: 130, SampledPoints: 67072},
				{Queries: 192, GridHits: 0, PointKernels: 347685, BoundKernels: 5651, NodesVisited: 14986, SamplingRounds: 334, SampledPoints: 202496},
				{Queries: 256, GridHits: 0, PointKernels: 443685, BoundKernels: 7855, NodesVisited: 22022, SamplingRounds: 334, SampledPoints: 202496},
			},
			DensityBits: [3]uint64{0x7bb5f233646c62f6, 0xd46532bd498e4bde, 0xe5bd9483b164dd09},
		}},
		{"tree/tmy3-retry", retryData, retryQueries, retry, pinnedModel{
			TrainKernels: 399272, BootstrapRounds: 5,
			Threshold: 0x3cfa82a2ecf89e72, ThresholdLow: 0x3cf4bc41772e691a, ThresholdHigh: 0x3cff76d9eff5785a,
			Score:     Counters{Queries: 64, GridHits: 0, PointKernels: 2059, BoundKernels: 3740, NodesVisited: 990, SamplingRounds: 0, SampledPoints: 0},
			ScoreBits: 0xea54027c2c2066c5,
			Density: [3]Counters{
				{Queries: 128, GridHits: 0, PointKernels: 16427, BoundKernels: 10588, NodesVisited: 3343, SamplingRounds: 0, SampledPoints: 0},
				{Queries: 192, GridHits: 0, PointKernels: 36651, BoundKernels: 18556, NodesVisited: 6257, SamplingRounds: 0, SampledPoints: 0},
				{Queries: 256, GridHits: 0, PointKernels: 100651, BoundKernels: 30972, NodesVisited: 12465, SamplingRounds: 0, SampledPoints: 0},
			},
			DensityBits: [3]uint64{0x29ca8a63873896c1, 0xd00e7490fa1380ba, 0x4b15f80576379821},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := pinModel(t, tc.data, tc.queries, tc.cfg)
			if got != tc.want {
				t.Errorf("pinned work changed:\n got %#v\nwant %#v", got, tc.want)
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
		{"golden/tree", goldenData, tree, 256, 0x3f804110a8dbdccc},
		{"d27/sampling", samplingData, sampling, 1024, 0x3b70eba1337dea5c},
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
