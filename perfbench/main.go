// Command perfbench is tkdc's layered benchmark. It generates one
// workload from a seed, drives it from this process through the real
// serving surfaces (the internal/server handler on a loopback listener,
// stream.Service, fleet.Publisher and fleet.Follower), checks every
// answer, and prints the end-to-end metrics with tracing off. With
// --trace 1 it runs the same workload untraced and then traced, and
// prints the per-layer metrics: spans recorded in this package around
// calls into each module's public functions, plus the modules' own work
// counters.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload online-gauss2 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero
// when any correctness check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tiny     bool
	// spans is the file the traced run writes its spans to ("" writes
	// none).
	spans string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all to run each untraced and then traced")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 15, "how long one measurement phase runs")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs untraced then traced and prints the per-layer metrics")
	size := fs.String("size", "full", "full, or tiny for a seconds-long smoke run of the same code")
	spans := fs.String("spans", "", "file the traced run writes its spans to (default .bench_build/spans/<workload>.csv)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), spans: *spans}
	if o.workload != "all" && findWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (want one of %s, or all)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	switch *trace {
	case 0:
	case 1:
		o.trace = true
		if o.spans == "" {
			o.spans = defaultSpans(o.workload)
		}
	default:
		return o, fmt.Errorf("--trace is %d, want 0 or 1", *trace)
	}
	switch *size {
	case "full":
	case "tiny":
		o.tiny = true
	default:
		return o, fmt.Errorf("--size is %q, want full or tiny", *size)
	}
	return o, nil
}

func defaultSpans(workload string) string { return ".bench_build/spans/" + workload + ".csv" }

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var res jsonResult
	if o.workload == "all" {
		res, err = runAll(o, os.Stdout)
	} else {
		var rep *report
		if rep, err = run(o, os.Stdout); err == nil {
			res = rep.result()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload untraced and then traced, printing each
// report, and sums them into one result whose metrics are keyed
// workload/metric.
func runAll(o options, out io.Writer) (jsonResult, error) {
	all := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			wo := o
			wo.workload, wo.trace, wo.spans = w.name, trace, ""
			if trace {
				wo.spans = defaultSpans(w.name)
			}
			rep, err := run(wo, out)
			if err != nil {
				return all, fmt.Errorf("%s: %w", w.name, err)
			}
			res := rep.result()
			all.Correct = all.Correct && res.Correct
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			for k, m := range res.Metrics {
				all.Metrics[w.name+"/"+k] = m
			}
		}
	}
	return all, nil
}

// run executes one invocation, writing the human-readable report to out.
func run(o options, out io.Writer) (*report, error) {
	w := findWorkload(o.workload)
	rep := newReport(out)
	rep.printf("perfbench: workload=%s seed=%d seconds=%g trace=%t tiny=%t", w.name, o.seed, o.seconds.Seconds(), o.trace, o.tiny)
	rep.printf("host: %s", hostFacts())
	rep.printf("why: %s", w.why)
	rep.printf("stresses: %s; bypasses: %s", w.stresses, w.bypasses)
	if err := w.run(&env{opts: o, rep: rep, sizes: w.sizes(o.tiny), cal: newCalibration()}); err != nil {
		return nil, err
	}
	rep.summarize()
	return rep, nil
}
