// Benchmarks mirroring the paper's evaluation, one target per table and
// figure. Each benchmark measures the steady-state per-query cost of the
// relevant algorithm/configuration on a scaled-down version of the
// figure's workload; training and dataset generation happen outside the
// timed region and are cached across sub-benchmarks. The full sweeps with
// training amortization and table output live in cmd/tkdc-bench
// (internal/bench).
package tkdc_test

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"tkdc"
	"tkdc/internal/baseline"
	"tkdc/internal/bench"
	"tkdc/internal/core"
	"tkdc/internal/dataset"
	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
)

// benchCache memoizes datasets and trained models across sub-benchmarks.
var benchCache sync.Map

func cached[T any](b *testing.B, key string, build func() (T, error)) T {
	b.Helper()
	if v, ok := benchCache.Load(key); ok {
		return v.(T)
	}
	v, err := build()
	if err != nil {
		b.Fatal(err)
	}
	benchCache.Store(key, v)
	return v
}

func benchData(b *testing.B, name string, n, d int) [][]float64 {
	key := fmt.Sprintf("data/%s/%d/%d", name, n, d)
	return cached(b, key, func() ([][]float64, error) {
		rows, err := dataset.Generate(name, n, d, 42)
		if err != nil {
			return nil, err
		}
		if d > 0 && name != "gauss" && d != len(rows[0]) {
			return dataset.TakeColumns(rows, d)
		}
		return rows, nil
	})
}

// benchStore memoizes the flat-storage copy of a cached dataset.
func benchStore(b *testing.B, key string, data [][]float64) *points.Store {
	return cached(b, "store/"+key, func() (*points.Store, error) {
		return points.FromRows(data)
	})
}

// benchKernel is the Scott's-rule Gaussian over pts, cached under key.
func benchKernel(b *testing.B, key string, pts *points.Store) *kernel.Gaussian {
	return cached(b, "kern/"+key, func() (*kernel.Gaussian, error) {
		h, err := kernel.ScottBandwidths(pts, 1)
		if err != nil {
			return nil, err
		}
		return kernel.NewGaussian(h)
	})
}

func benchClassifier(b *testing.B, key string, data [][]float64, mut func(*tkdc.Config)) *tkdc.Classifier {
	return cached(b, "clf/"+key, func() (*tkdc.Classifier, error) {
		cfg := tkdc.DefaultConfig()
		cfg.Seed = 42
		if mut != nil {
			mut(&cfg)
		}
		return tkdc.Train(data, cfg)
	})
}

func scoreLoop(b *testing.B, clf *tkdc.Classifier, data [][]float64) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clf.Score(data[i%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 1: default task parameters are exercised by every benchmark
// via DefaultConfig; Table 2/3 rosters below. ---

// BenchmarkTable2Algorithms measures one density query per Table 2
// algorithm on the same 2-d gaussian workload.
func BenchmarkTable2Algorithms(b *testing.B) {
	data := benchData(b, "gauss", 20000, 2)
	b.Run("tkdc", func(b *testing.B) {
		clf := benchClassifier(b, "tab2", data, nil)
		scoreLoop(b, clf, data)
	})
	pts := benchStore(b, "tab2", data)
	kern := benchKernel(b, "tab2", pts)
	b.Run("simple", func(b *testing.B) {
		s := baseline.NewSimple(pts, kern)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Density(data[i%len(data)])
		}
	})
	b.Run("nocut", func(b *testing.B) {
		nc := cached(b, "tab2/nocut", func() (*baseline.NoCut, error) {
			return baseline.NewNoCut(pts, kern, 0.01)
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nc.Density(data[i%len(data)])
		}
	})
	b.Run("rkde", func(b *testing.B) {
		rk := cached(b, "tab2/rkde", func() (*baseline.RKDE, error) {
			return baseline.NewRKDE(pts, kern, 4)
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rk.Density(data[i%len(data)])
		}
	})
	b.Run("binned", func(b *testing.B) {
		bn := cached(b, "tab2/binned", func() (*baseline.Binned, error) {
			return baseline.NewBinned(pts, kern)
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bn.Density(data[i%len(data)])
		}
	})
}

// BenchmarkTable3Generators measures dataset generation for every Table 3
// stand-in.
func BenchmarkTable3Generators(b *testing.B) {
	for _, info := range dataset.Catalog() {
		info := info
		b.Run(info.Name, func(b *testing.B) {
			d := info.Dim
			if d == 0 {
				d = 2
			}
			for i := 0; i < b.N; i++ {
				if _, err := dataset.Generate(info.Name, 1000, d, 42); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig1ShuttleClassify measures density classification on the
// 2-d shuttle-like measurements of Figure 1.
// BenchmarkScore measures steady-state Classifier.Score on 50k-point
// Gaussian datasets at low and moderate dimensionality — the reference
// numbers for storage-layout changes on the leaf-scan hot path.
func BenchmarkScore(b *testing.B) {
	const n = 50000
	for _, d := range []int{2, 8} {
		data := benchData(b, "gauss", n, d)
		clf := benchClassifier(b, fmt.Sprintf("score/%d/%d", n, d), data, nil)
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			scoreLoop(b, clf, data)
		})
	}
}

// BenchmarkScoreParallel hammers Score from GOMAXPROCS goroutines at
// once (raise with -cpu to push harder). It exists to watch the work
// counters under contention: every query commits its counters under a
// sharded lock, and this benchmark is where a regression to a single
// serializing lock would show up.
func BenchmarkScoreParallel(b *testing.B) {
	const n = 50000
	data := benchData(b, "gauss", n, 2)
	clf := benchClassifier(b, fmt.Sprintf("score/%d/%d", n, 2), data, nil)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := clf.Score(data[i%len(data)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkScoreTelemetry measures the recorder's hot-path cost: "off"
// is the default no-op recorder (one interface call per query to
// Nop.Enabled, which returns a constant false; the configuration
// BenchmarkScore runs under), "on" a live registry taking
// two time reads plus histogram updates per query, "flight-disabled" a
// registry with a flight recorder attached but tracing switched off
// (one extra atomic pointer load + bool check — must stay within noise
// of "on"), and "flight" full per-query trace capture into the
// recorder's rings. Every variant scores one classifier, trained before
// any is timed, with its recorder swapped by SetRecorder, so the
// variants differ only in the recorder. The off/on delta is the price of
// the observability layer; off must stay within noise of BenchmarkScore.
//
// "flight-disabled-vs-off" is the CI telemetry-overhead gate
// (scripts/ratio_gates.json): each iteration scores the same 20 000 rows
// once with no recorder and once flight-disabled, and its "ratio" is the
// median pair's time ratio.
func BenchmarkScoreTelemetry(b *testing.B) {
	const n = 50000
	data := benchData(b, "gauss", n, 2)
	clf := benchClassifier(b, fmt.Sprintf("score/%d/%d", n, 2), data, nil)
	defer clf.SetRecorder(nil)
	flightDisabled := func() *tkdc.Registry {
		reg := tkdc.NewRegistry()
		flight := tkdc.NewFlightRecorder(tkdc.FlightOptions{})
		flight.SetEnabled(false)
		reg.AttachFlightRecorder(flight)
		return reg
	}
	for _, v := range []struct {
		name string
		reg  func() *tkdc.Registry // nil: no recorder
	}{
		{"off", nil},
		{"on", tkdc.NewRegistry},
		{"flight-disabled", flightDisabled},
		{"flight", func() *tkdc.Registry {
			reg := tkdc.NewRegistry()
			reg.AttachFlightRecorder(tkdc.NewFlightRecorder(tkdc.FlightOptions{}))
			return reg
		}},
	} {
		b.Run(v.name, func(b *testing.B) {
			clf.SetRecorder(nil)
			if v.reg != nil {
				clf.SetRecorder(v.reg())
			}
			scoreLoop(b, clf, data)
		})
	}
	b.Run("flight-disabled-vs-off", func(b *testing.B) {
		reg := flightDisabled()
		rows := data[:20000]
		score := func() {
			for _, x := range rows {
				if _, err := clf.Score(x); err != nil {
					b.Fatal(err)
				}
			}
		}
		pairedRatio(b, len(rows),
			func() { clf.SetRecorder(nil); score() },
			func() { clf.SetRecorder(reg); score() })
	})
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

func BenchmarkFig1ShuttleClassify(b *testing.B) {
	data := benchData(b, "shuttle", 20000, 2)
	clf := benchClassifier(b, "fig1", data, nil)
	scoreLoop(b, clf, data)
}

// BenchmarkFig7Throughput measures per-query tKDC classification on every
// Figure 7 dataset panel.
func BenchmarkFig7Throughput(b *testing.B) {
	panels := []struct {
		name string
		data func(b *testing.B) [][]float64
		bw   float64
	}{
		{"gauss_d2", func(b *testing.B) [][]float64 { return benchData(b, "gauss", 20000, 2) }, 1},
		{"tmy3_d4", func(b *testing.B) [][]float64 { return benchData(b, "tmy3", 15000, 4) }, 1},
		{"tmy3_d8", func(b *testing.B) [][]float64 { return benchData(b, "tmy3", 15000, 8) }, 1},
		{"home_d10", func(b *testing.B) [][]float64 { return benchData(b, "home", 10000, 10) }, 1},
		{"hep_d27", func(b *testing.B) [][]float64 { return benchData(b, "hep", 8000, 27) }, 1},
		{"sift_d64", func(b *testing.B) [][]float64 { return benchData(b, "sift", 4000, 64) }, 1},
		{"mnist_d64", func(b *testing.B) [][]float64 {
			return cached(b, "data/mnist64", func() ([][]float64, error) {
				return dataset.PCAReduce(dataset.MNIST(3000, 42), 64, 2000, 42)
			})
		}, 3},
		{"mnist_d256", func(b *testing.B) [][]float64 {
			return cached(b, "data/mnist256", func() ([][]float64, error) {
				return dataset.PCAReduce(dataset.MNIST(3000, 42), 256, 2000, 42)
			})
		}, 3},
	}
	for _, p := range panels {
		p := p
		b.Run(p.name, func(b *testing.B) {
			data := p.data(b)
			clf := benchClassifier(b, "fig7/"+p.name, data, func(c *tkdc.Config) { c.BandwidthFactor = p.bw })
			scoreLoop(b, clf, data)
		})
	}
}

// BenchmarkFig8Accuracy measures the exact ground-truth pass that anchors
// the Figure 8 accuracy comparison.
func BenchmarkFig8Accuracy(b *testing.B) {
	data := benchData(b, "tmy3", 2000, 4)
	pts := benchStore(b, "fig8", data)
	kern := benchKernel(b, "fig8", pts)
	s := baseline.NewSimple(pts, kern)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Density(data[i%len(data)])
	}
}

// BenchmarkFig9ScaleN measures tKDC per-query cost as n grows on 2-d
// gauss data (the Figure 9 series).
func BenchmarkFig9ScaleN(b *testing.B) {
	for _, n := range []int{10000, 40000, 160000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := benchData(b, "gauss", n, 2)
			clf := benchClassifier(b, fmt.Sprintf("fig9/%d", n), data, nil)
			scoreLoop(b, clf, data)
		})
	}
}

// BenchmarkFig10ScaleNHighDim measures tKDC per-query cost as n grows on
// 27-d hep data (the Figure 10 series).
func BenchmarkFig10ScaleNHighDim(b *testing.B) {
	for _, n := range []int{5000, 20000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := benchData(b, "hep", n, 27)
			clf := benchClassifier(b, fmt.Sprintf("fig10/%d", n), data, nil)
			scoreLoop(b, clf, data)
		})
	}
}

// BenchmarkFig11ScaleDim measures tKDC per-query cost across hep column
// subsets (the Figure 11 series).
func BenchmarkFig11ScaleDim(b *testing.B) {
	full := benchData(b, "hep", 10000, 27)
	for _, d := range []int{1, 2, 4, 8, 16, 27} {
		d := d
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			data := cached(b, fmt.Sprintf("fig11/data/%d", d), func() ([][]float64, error) {
				return dataset.TakeColumns(full, d)
			})
			clf := benchClassifier(b, fmt.Sprintf("fig11/%d", d), data, nil)
			scoreLoop(b, clf, data)
		})
	}
}

// BenchmarkFig12FactorAnalysis measures per-query cost as the paper's
// optimizations are enabled cumulatively.
func BenchmarkFig12FactorAnalysis(b *testing.B) {
	data := benchData(b, "tmy3", 8000, 4)
	configs := []struct {
		name string
		mut  func(*tkdc.Config)
	}{
		{"Baseline", func(c *tkdc.Config) {
			c.DisableThresholdRule = true
			c.DisableToleranceRule = true
			c.DisableGrid = true
			c.Split = kdtree.SplitMedian
		}},
		{"+Threshold", func(c *tkdc.Config) {
			c.DisableToleranceRule = true
			c.DisableGrid = true
			c.Split = kdtree.SplitMedian
		}},
		{"+Tolerance", func(c *tkdc.Config) {
			c.DisableGrid = true
			c.Split = kdtree.SplitMedian
		}},
		{"+Equiwidth", func(c *tkdc.Config) { c.DisableGrid = true }},
		{"+Grid", func(c *tkdc.Config) {}},
	}
	for _, fc := range configs {
		fc := fc
		b.Run(fc.name, func(b *testing.B) {
			clf := benchClassifier(b, "fig12/"+fc.name, data, fc.mut)
			scoreLoop(b, clf, data)
		})
	}
}

// BenchmarkFig13RadiusSweep measures rkde per-query cost across cutoff
// radii (the Figure 13 series).
func BenchmarkFig13RadiusSweep(b *testing.B) {
	data := benchData(b, "tmy3", 15000, 4)
	pts := benchStore(b, "fig13", data)
	kern := benchKernel(b, "fig13", pts)
	for _, radius := range []float64{0.5, 1, 2, 4} {
		radius := radius
		b.Run(fmt.Sprintf("r=%.1f", radius), func(b *testing.B) {
			rk := cached(b, fmt.Sprintf("fig13/%v", radius), func() (*baseline.RKDE, error) {
				return baseline.NewRKDE(pts, kern, radius)
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rk.Density(data[i%len(data)])
			}
		})
	}
}

// BenchmarkFig14MnistDim measures tKDC per-query cost on PCA-reduced
// mnist across dimensionalities (the Figure 14 series).
func BenchmarkFig14MnistDim(b *testing.B) {
	reduced := cached(b, "fig14/data", func() ([][]float64, error) {
		return dataset.PCAReduce(dataset.MNIST(3000, 42), 128, 2000, 42)
	})
	for _, d := range []int{4, 16, 64, 128} {
		d := d
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			data := cached(b, fmt.Sprintf("fig14/data/%d", d), func() ([][]float64, error) {
				return dataset.TakeColumns(reduced, d)
			})
			clf := benchClassifier(b, fmt.Sprintf("fig14/%d", d), data, func(c *tkdc.Config) { c.BandwidthFactor = 3 })
			scoreLoop(b, clf, data)
		})
	}
}

// BenchmarkFig15ThresholdSweep measures tKDC per-query cost across
// quantile thresholds p (the Figure 15 series).
func BenchmarkFig15ThresholdSweep(b *testing.B) {
	data := benchData(b, "tmy3", 15000, 4)
	for _, p := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		p := p
		b.Run(fmt.Sprintf("p=%.2f", p), func(b *testing.B) {
			clf := benchClassifier(b, fmt.Sprintf("fig15/%v", p), data, func(c *tkdc.Config) { c.P = p })
			scoreLoop(b, clf, data)
		})
	}
}

// BenchmarkFig16Lesion measures per-query cost with each optimization
// removed individually.
func BenchmarkFig16Lesion(b *testing.B) {
	data := benchData(b, "tmy3", 8000, 4)
	configs := []struct {
		name string
		mut  func(*tkdc.Config)
	}{
		{"Complete", func(c *tkdc.Config) {}},
		{"-Threshold", func(c *tkdc.Config) { c.DisableThresholdRule = true }},
		{"-Tolerance", func(c *tkdc.Config) { c.DisableToleranceRule = true }},
		{"-Equiwidth", func(c *tkdc.Config) { c.Split = kdtree.SplitMedian }},
		{"-Grid", func(c *tkdc.Config) { c.DisableGrid = true }},
	}
	for _, fc := range configs {
		fc := fc
		b.Run(fc.name, func(b *testing.B) {
			clf := benchClassifier(b, "fig16/"+fc.name, data, fc.mut)
			scoreLoop(b, clf, data)
		})
	}
}

// BenchmarkTraining measures end-to-end Train (bootstrap + index + grid +
// threshold refinement), the amortized component of Figure 7.
func BenchmarkTraining(b *testing.B) {
	data := benchData(b, "gauss", 10000, 2)
	cfg := core.DefaultConfig()
	cfg.Seed = 42
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(data, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrain is the parallel-training baseline pinned in
// BENCH_train.json: end-to-end Train at each worker count on 50k gauss
// d=2 points, which train on the tree start, and (tmy3/) on
// dataset.TMY3(20480, 1), whose d = 8 rows train on the near-first start
// and retry bootstrap rounds on their upper side. Models are
// bit-identical across counts, so this isolates the wall-clock effect
// of the level-parallel tree build, concurrent bootstrap scoring, and
// parallel grid fill.
func BenchmarkTrain(b *testing.B) {
	sets := []struct {
		prefix string
		data   [][]float64
	}{
		{"", benchData(b, "gauss", 50000, 2)},
		{"tmy3/", cached(b, "data/tmy3/20480/seed1", func() ([][]float64, error) {
			return dataset.TMY3(20480, 1), nil
		})},
	}
	for _, set := range sets {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%sworkers=%d", set.prefix, workers), func(b *testing.B) {
				cfg := core.DefaultConfig()
				cfg.Seed = 42
				cfg.Workers = workers
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.Train(set.data, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkParallelClassify measures the Workers extension: batch
// classification across goroutines.
func BenchmarkParallelClassify(b *testing.B) {
	data := benchData(b, "gauss", 40000, 2)
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			clf := benchClassifier(b, fmt.Sprintf("par/%d", workers), data, func(c *tkdc.Config) { c.Workers = workers })
			batch := data[:2000]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := clf.ClassifyAll(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHarnessSmoke runs the cheapest full harness experiments to keep
// the cmd/tkdc-bench path exercised under `go test -bench`.
func BenchmarkHarnessSmoke(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Run("tab3", bench.Options{Scale: 0.001, MaxQueries: 10, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplitRules is the index ablation behind the +Equiwidth step of
// Figure 12: trimmed-midpoint vs balanced median splitting.
func BenchmarkSplitRules(b *testing.B) {
	data := benchData(b, "tmy3", 15000, 4)
	for _, rule := range []tkdc.SplitRule{tkdc.SplitEquiWidth, tkdc.SplitMedian} {
		rule := rule
		b.Run(rule.String(), func(b *testing.B) {
			clf := benchClassifier(b, "split/"+rule.String(), data, func(c *tkdc.Config) {
				c.Split = rule
				c.DisableGrid = true
			})
			scoreLoop(b, clf, data)
		})
	}
}

// BenchmarkSaveLoad measures model persistence round trips.
func BenchmarkSaveLoad(b *testing.B) {
	data := benchData(b, "gauss", 10000, 2)
	clf := benchClassifier(b, "persist", data, nil)
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := clf.Save(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		var buf bytes.Buffer
		if err := clf.Save(&buf); err != nil {
			b.Fatal(err)
		}
		raw := buf.Bytes()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tkdc.Load(bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
