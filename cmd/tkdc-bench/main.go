// Command tkdc-bench regenerates the tables and figures of the paper's
// evaluation section on synthetic stand-in datasets.
//
// Usage:
//
//	tkdc-bench -list
//	tkdc-bench -experiment fig7 -scale 0.01
//	tkdc-bench -experiment all -scale 0.005 -maxqueries 1000
//
// Scale 1 approaches paper-scale dataset sizes (hours of runtime); the
// default 0.01 finishes on a laptop while preserving the result shapes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"tkdc/internal/bench"
	"tkdc/internal/telemetry"
)

// jsonReport is the machine-readable envelope -json emits: enough run
// metadata to make a committed baseline (BENCH_core.json) reproducible.
type jsonReport struct {
	Experiment string        `json:"experiment"`
	Scale      float64       `json:"scale"`
	MaxQueries int           `json:"max_queries"`
	Seed       int64         `json:"seed"`
	GoVersion  string        `json:"go_version"`
	GOARCH     string        `json:"goarch"`
	Timestamp  string        `json:"timestamp"`
	Tables     []bench.Table `json:"tables"`
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (tab2, tab3, fig7..fig16, or all)")
		scale      = flag.Float64("scale", 0.01, "dataset size multiplier relative to the paper (0 < scale <= 1)")
		maxQueries = flag.Int("maxqueries", 2000, "maximum measured queries per algorithm (throughput is extrapolated)")
		seed       = flag.Int64("seed", 42, "random seed for dataset generation and training")
		list       = flag.Bool("list", false, "list available experiments and exit")
		stats      = flag.Bool("stats", false, "print a post-run telemetry summary (tKDC phase traces, work histograms) to stderr")
		jsonOut    = flag.Bool("json", false, "emit results as a JSON report on stdout instead of rendered tables")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-6s %s\n", e.ID, e.Description)
		}
		return
	}

	opts := bench.Options{
		Scale:      *scale,
		MaxQueries: *maxQueries,
		Seed:       *seed,
		Out:        os.Stdout,
	}
	if *jsonOut {
		opts.Out = io.Discard
	}
	if *stats {
		opts.Recorder = telemetry.Default
	}
	tables, err := bench.Run(*experiment, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tkdc-bench:", err)
		os.Exit(1)
	}
	if *jsonOut {
		report := jsonReport{
			Experiment: *experiment,
			Scale:      *scale,
			MaxQueries: *maxQueries,
			Seed:       *seed,
			GoVersion:  runtime.Version(),
			GOARCH:     runtime.GOARCH,
			Timestamp:  time.Now().UTC().Format(time.RFC3339),
			Tables:     tables,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "tkdc-bench:", err)
			os.Exit(1)
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "tkdc-bench: telemetry across all tKDC classifiers in the run\n%s",
			telemetry.Default.Snapshot())
	}
}
