package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// report collects a run's metrics and per-operation counts and writes
// the human-readable lines as it goes.
type report struct {
	out     io.Writer
	metrics []metric
	ops     []*opCount
	// failures records checks that failed outside the per-operation
	// counts (work counts that do not repeat).
	failures []string
}

// metric is one named number of the final JSON line.
type metric struct {
	name  string
	value float64
	unit  string
}

// opCount tallies one kind of operation. Non-200 answers, transport
// errors, follower failures or rejections and check mismatches all
// count as failed.
type opCount struct {
	name              string
	attempted, failed int64
}

func newReport(out io.Writer) *report { return &report{out: out} }

func (r *report) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// op returns the counter for an operation kind, creating it on first use
// so the summary lists kinds in the order the workload first used them.
func (r *report) op(name string) *opCount {
	for _, o := range r.ops {
		if o.name == name {
			return o
		}
	}
	o := &opCount{name: name}
	r.ops = append(r.ops, o)
	return o
}

// add records one metric for the JSON line and prints it with its
// sample description.
func (r *report) add(name string, value float64, unit, samples string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
	r.printf("metric %-28s %14.6g %-8s %s", name, value, unit, samples)
}

// info prints a number that is not part of the JSON line.
func (r *report) info(name string, value float64, unit, samples string) {
	r.printf("info   %-28s %14.6g %-8s %s", name, value, unit, samples)
}

func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	r.printf("CHECK FAILED: %s", msg)
}

func (r *report) totals() (attempted, failed int64) {
	for _, o := range r.ops {
		attempted += o.attempted
		failed += o.failed
	}
	return attempted, failed
}

func (r *report) correct() bool {
	_, failed := r.totals()
	return failed == 0 && len(r.failures) == 0
}

func (r *report) summarize() {
	for _, o := range r.ops {
		r.printf("ops    %-28s attempted=%d failed=%d", o.name, o.attempted, o.failed)
	}
	r.printf("correct=%t", r.correct())
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *report) result() jsonResult {
	attempted, failed := r.totals()
	res := jsonResult{Correct: r.correct(), Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	return res
}

// hostFacts names what every number depends on: core count, Go
// scheduler width, CPU model and toolchain.
func hostFacts() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile returns the q-quantile of xs by the nearest-rank rule; xs is
// sorted in place. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median is the 0.5 quantile, averaging the middle pair of an even
// count so a two-sample median is not biased toward either sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func seconds(d time.Duration) float64 { return d.Seconds() }

// durations converts a sample of durations with the given unit function.
func durations(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}
