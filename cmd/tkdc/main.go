// Command tkdc trains a thresholded kernel density classifier on a CSV
// dataset and classifies query points, printing one label per query row.
//
// Usage:
//
//	tkdc -train data.csv                      # classify the training rows
//	tkdc -train data.csv -query probes.csv    # classify separate queries
//	tkdc -train data.csv -p 0.05 -density     # also print density bounds
//	tkdc -train data.csv -save model.tkdc     # persist the trained model
//	tkdc -load model.tkdc -query probes.csv   # serve queries, no retraining
//	tkdc -train data.csv -stats               # post-run telemetry summary
//	tkdc -train data.csv -stats -trace-slow 1ms
//	                                          # flight-record queries, log slow ones
//	tkdc -train data.csv -serve :8080         # HTTP serving mode
//	tkdc -train data.csv -serve :8080 -stream -retrain-every 10000
//	                                          # streaming ingest + retrains
//	tkdc -follow http://leader:8080 -serve :8081
//	                                          # stateless serving replica
//
// Output is CSV: label[,lower,upper] per query row, preceded by a summary
// of the trained model on stderr. With -stats, a telemetry report (train
// phase spans, query latency percentiles, kernels per query) follows on
// stderr. With -trace-slow, every query leaves a flight record — a
// per-stage trace of the work it did — retained for the slowest and most
// recent queries plus every threshold-straddler; queries at least that
// slow are additionally logged as they happen, and the recorder's summary
// joins the -stats report (or GET /debug/queries under -serve). With
// -serve, no batch classification happens; instead the process serves
// POST /classify (CSV or JSON rows) plus /metrics, /healthz,
// /debug/queries, and /debug/pprof/* until interrupted. Adding -stream also
// accepts POST /ingest into a bounded sample and retrains in the
// background (-retrain-every rows, -max-model-age, -drift-tolerance),
// hot-swapping the model without interrupting queries; -window trades
// the uniform reservoir for a sliding window over the newest -sample
// rows, -ingest-shards lock-stripes ingest over independent reservoirs
// (merged deterministically at retrain; 0 = one per core) so ingest
// throughput scales past one core, and -save doubles as the path for
// atomic model snapshots after each swap.
//
// With -follow URL the process is a stateless serving replica: it
// bootstraps its model from the leader's GET /snapshot, polls every
// -poll-every (jittered, with exponential backoff on faults), verifies
// each snapshot's checksum, and hot-swaps generations without blocking
// queries. A replica keeps serving its last good model through leader
// outages; with -stale-after set, /healthz flips to 503 once it has gone
// that long without a successful sync so load balancers drain it. Every
// serving process — leader or replica — exposes GET /snapshot and
// /snapshot/meta, so replicas can fan out behind replicas.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"tkdc"
	"tkdc/internal/dataset"
	"tkdc/internal/fleet"
	"tkdc/internal/server"
	"tkdc/internal/telemetry"
)

func main() {
	var (
		trainPath = flag.String("train", "", "training CSV (required unless -load)")
		loadPath  = flag.String("load", "", "load a model saved with -save instead of training")
		savePath  = flag.String("save", "", "save the trained model to this path")
		queryPath = flag.String("query", "", "query CSV (default: classify the training rows)")
		p         = flag.Float64("p", 0.01, "quantile classification rate p")
		eps       = flag.Float64("epsilon", 0.01, "multiplicative classification error")
		delta     = flag.Float64("delta", 0.01, "threshold bound failure probability")
		bw        = flag.Float64("b", 1, "bandwidth scale factor (Scott's rule multiplier)")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "training and classification goroutines (models are bit-identical at any count)")
		backend   = flag.String("backend", tkdc.BackendAuto, "where the certified refinement starts: auto (tree for d<=8, sampling above), tree (the k-d tree's root), or sampling (the near-first start: a near phase, then its frontier)")
		seed      = flag.Int64("seed", 42, "training seed")
		density   = flag.Bool("density", false, "print density bounds alongside labels")
		stats     = flag.Bool("stats", false, "print a post-run telemetry summary to stderr")
		serve     = flag.String("serve", "", "serve HTTP on this address (e.g. :8080) instead of batch-classifying")

		traceSlow = flag.Duration("trace-slow", 0, "record per-query flight traces (GET /debug/queries, -stats summary) and log queries at least this slow (0 traces without slow-logging)")

		streamMode   = flag.Bool("stream", false, "with -serve: accept POST /ingest and retrain in the background")
		retrainEvery = flag.Int64("retrain-every", 0, "with -stream: retrain after this many newly ingested rows (0 disables)")
		maxModelAge  = flag.Duration("max-model-age", 0, "with -stream: retrain when the model is older than this and new rows arrived (0 disables)")
		driftTol     = flag.Float64("drift-tolerance", 0, "with -stream: retrain when a threshold probe drifts past this relative fraction (0 disables)")
		window       = flag.Bool("window", false, "with -stream: keep a sliding window of the newest -sample rows instead of a uniform reservoir")
		sampleCap    = flag.Int("sample", 100_000, "with -stream: bounded in-memory sample capacity in rows")
		ingestShards = flag.Int("ingest-shards", 1, "with -stream: lock-stripe ingest over this many independent reservoirs, merged deterministically at retrain (1 = single lock, bit-identical to prior releases; 0 = one per core; memory scales as shards x -sample)")

		follow     = flag.String("follow", "", "replicate a leader: poll URL/snapshot and hot-swap generations (requires -serve; excludes -train/-load/-stream)")
		pollEvery  = flag.Duration("poll-every", 2*time.Second, "with -follow: steady-state snapshot poll interval (jittered; backs off exponentially on failures)")
		staleAfter = flag.Duration("stale-after", 0, "with -follow: answer 503 on /healthz after this long without a successful leader sync (0 disables)")
	)
	flag.Parse()
	if err := validateFlags(*trainPath, *loadPath, *follow, *serve, *streamMode); err != nil {
		fmt.Fprintln(os.Stderr, "tkdc:", err)
		os.Exit(2)
	}
	if err := validateBackend(*backend); err != nil {
		fmt.Fprintln(os.Stderr, "tkdc:", err)
		os.Exit(2)
	}
	if err := validateShards(*ingestShards); err != nil {
		fmt.Fprintln(os.Stderr, "tkdc:", err)
		os.Exit(2)
	}

	// The slow-log threshold of 0 is meaningful (trace everything, log
	// nothing), so flag presence — not value — turns the recorder on.
	traceSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "trace-slow" {
			traceSet = true
		}
	})

	// -stats and -serve both record into the process-wide registry, so
	// tkdc.Metrics() and the /metrics endpoint see the same stream. A nil
	// registry keeps telemetry off.
	var reg *telemetry.Registry
	if *stats || *serve != "" || traceSet {
		reg = telemetry.Default
	}
	var flight *telemetry.FlightRecorder
	if traceSet {
		flight = telemetry.NewFlightRecorder(telemetry.FlightOptions{
			SlowThreshold: *traceSlow,
			Logger:        slog.New(slog.NewTextHandler(os.Stderr, nil)),
		})
		reg.AttachFlightRecorder(flight)
	}

	if *follow != "" {
		runFollower(*follow, *serve, fleetOptions{
			pollEvery:  *pollEvery,
			staleAfter: *staleAfter,
			workers:    *workers,
			seed:       *seed,
		}, reg)
		return
	}

	var clf *tkdc.Classifier
	var queries [][]float64
	if *loadPath != "" {
		var err error
		clf, err = tkdc.LoadFile(*loadPath)
		if err != nil {
			fail(err)
		}
		clf.SetRecorder(reg)
		// The snapshot carries the training machine's Workers; serve with
		// this host's budget instead (also inherited by -stream retrains).
		clf.SetWorkers(*workers)
		if *queryPath == "" && *serve == "" {
			fmt.Fprintln(os.Stderr, "tkdc: -load requires -query or -serve")
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "tkdc: loaded model (n=%d d=%d, threshold %.6g, backend %s)\n",
			clf.N(), clf.Dim(), clf.Threshold(), clf.Backend())
	} else {
		data, err := readCSVFile(*trainPath)
		if err != nil {
			fail(err)
		}
		queries = data

		cfg := tkdc.DefaultConfig()
		cfg.P = *p
		cfg.Epsilon = *eps
		cfg.Delta = *delta
		cfg.BandwidthFactor = *bw
		cfg.Workers = *workers
		cfg.Backend = *backend
		cfg.Seed = *seed
		cfg.Recorder = reg

		clf, err = tkdc.Train(data, cfg)
		if err != nil {
			fail(err)
		}
		ts := clf.TrainStats()
		fmt.Fprintf(os.Stderr, "tkdc: trained on n=%d d=%d; threshold t(p=%g)=%.6g in [%.6g, %.6g]; %d bootstrap rounds; %d workers; %s backend\n",
			ts.N, ts.Dim, *p, ts.Threshold, ts.ThresholdLow, ts.ThresholdHigh, ts.BootstrapRounds, ts.Workers, clf.Backend())
		if *savePath != "" {
			if err := clf.SaveFile(*savePath); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "tkdc: model saved to %s\n", *savePath)
		}
	}

	if *serve != "" {
		var svc *tkdc.StreamService
		var pub *fleet.Publisher
		if *streamMode {
			var err error
			svc, err = tkdc.NewStreamService(clf, tkdc.StreamConfig{
				Capacity:       *sampleCap,
				Window:         *window,
				Seed:           *seed,
				Shards:         resolveShards(*ingestShards),
				RetrainEvery:   *retrainEvery,
				MaxModelAge:    *maxModelAge,
				DriftTolerance: *driftTol,
				SnapshotPath:   *savePath,
				Prefill:        true,
				Recorder:       reg,
				// Re-encode the replication snapshot in the retrain
				// goroutine so follower fetches after a swap hit the cache.
				OnSwap: func(uint64) {
					if pub != nil {
						pub.Refresh()
					}
				},
			})
			if err != nil {
				fail(err)
			}
			pub = fleet.NewPublisher(svc.Model())
			svc.Start() // after pub: the hook must see the assignment
		}
		runServer(clf, reg, *serve, svc, pub)
		if svc != nil {
			if err := svc.Close(); err != nil {
				fail(err)
			}
		}
		return
	}

	if *queryPath != "" {
		var err error
		queries, err = readCSVFile(*queryPath)
		if err != nil {
			fail(err)
		}
	}

	w := bufio.NewWriter(os.Stdout)
	if err := writeResults(w, clf, queries, *density); err != nil {
		fail(err)
	}
	w.Flush()

	if *stats {
		fmt.Fprintf(os.Stderr, "tkdc: telemetry (backend %s)\n%s", clf.Backend(), indent(clf.Snapshot().String()))
		if flight != nil {
			fmt.Fprintf(os.Stderr, "tkdc: flight recorder\n%s", indent(flight.Snapshot().String()))
		}
	}
}

// runServer blocks serving HTTP until SIGINT/SIGTERM, then shuts down
// gracefully. With a non-nil streaming service, the handlers serve its
// live model and accept ingest; the caller owns the service lifecycle.
func runServer(clf *tkdc.Classifier, reg *telemetry.Registry, addr string, svc *tkdc.StreamService, pub *fleet.Publisher) {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	serveLoop(addr, logger, server.Options{Registry: reg, Logger: logger, Stream: svc, Publisher: pub}, clf,
		slog.Bool("stream", svc != nil))
}

// fleetOptions carries the -follow tuning from main to runFollower.
type fleetOptions struct {
	pollEvery  time.Duration
	staleAfter time.Duration
	workers    int
	seed       int64
}

// runFollower is the -follow serving mode: bootstrap-sync a replica from
// the leader (retrying until the first snapshot lands or the process is
// interrupted), then serve it while the background poll loop hot-swaps
// generations underneath the handlers.
func runFollower(leaderURL, addr string, fo fleetOptions, reg *telemetry.Registry) {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	f, err := fleet.NewFollower(fleet.FollowerConfig{
		URL:        leaderURL,
		PollEvery:  fo.pollEvery,
		StaleAfter: fo.staleAfter,
		Workers:    fo.workers,
		Logger:     logger,
		Seed:       fo.seed,
		Recorder:   reg,
	})
	if err != nil {
		fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Info("fleet: syncing from leader", slog.String("leader", leaderURL))
	if err := f.Sync(ctx); err != nil {
		fail(err)
	}
	f.Start()
	defer f.Close()

	clf := f.Model().Current()
	serveLoop(addr, logger, server.Options{Registry: reg, Logger: logger, Follower: f}, clf,
		slog.String("role", "follower"), slog.String("leader", leaderURL))
}

// shutdownDrain bounds how long a shutting-down server waits for
// in-flight requests to finish.
const shutdownDrain = 5 * time.Second

// serveLoop is the shared HTTP serving loop behind -serve and -follow:
// build the handler, listen, and shut down gracefully on SIGINT/SIGTERM.
func serveLoop(addr string, logger *slog.Logger, opts server.Options, clf *tkdc.Classifier, extra ...slog.Attr) {
	srv := newHTTPServer(addr, server.New(clf, opts))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fields := []any{
		slog.String("addr", addr),
		slog.Int("n", clf.N()),
		slog.Int("dim", clf.Dim()),
		slog.Float64("threshold", clf.Threshold()),
	}
	for _, a := range extra {
		fields = append(fields, a)
	}
	logger.Info("serving", fields...)
	if err := serveUntil(ctx, srv, ln, shutdownDrain); errors.Is(err, context.DeadlineExceeded) {
		logger.Error("shutdown drain timed out; in-flight requests were cut off", slog.Duration("drain", shutdownDrain))
	} else if err != nil {
		fail(err)
	}
	logger.Info("shut down")
}

// serveUntil serves srv on ln until ctx is done, then shuts srv down,
// giving in-flight requests up to drain to finish. It returns only once
// Shutdown has: Serve returns the moment Shutdown starts, so returning
// on Serve alone lets the process exit mid-response. The error is
// Serve's if it failed before ctx was done, else Shutdown's
// (context.DeadlineExceeded when the drain ran out of time).
func serveUntil(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration) error {
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	<-served // http.ErrServerClosed, already sent when Shutdown began
	return err
}

// newHTTPServer wraps the handler in an http.Server with serving
// timeouts: a header deadline against slowloris clients, a bound on
// reading request bodies, and keep-alive reaping. WriteTimeout stays
// zero because /debug/pprof/profile and /debug/pprof/trace stream their
// responses for a caller-chosen duration.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// validateFlags rejects incoherent mode combinations right after flag
// parsing, before any CSV is read, a model is trained, or a socket is
// opened — mirroring validateBackend's fail-fast contract. The modes:
//
//   - batch / serve: exactly one of -train or -load supplies the model
//   - follower: -follow supplies the model over the network and needs
//     -serve; it excludes -train, -load, and -stream (a replica is
//     stateless — it neither trains nor ingests)
//   - streaming: -stream needs a trained/loaded model and -serve
func validateFlags(train, load, follow, serve string, streamMode bool) error {
	if follow != "" {
		var conflicts []string
		if train != "" {
			conflicts = append(conflicts, "-train")
		}
		if load != "" {
			conflicts = append(conflicts, "-load")
		}
		if streamMode {
			conflicts = append(conflicts, "-stream")
		}
		if len(conflicts) > 0 {
			return fmt.Errorf("-follow replicates its model from the leader and cannot be combined with %s (a follower is stateless: it neither trains nor ingests)",
				strings.Join(conflicts, ", "))
		}
		if serve == "" {
			return errors.New("-follow requires -serve (a follower exists to serve queries)")
		}
		return nil
	}
	if (train == "") == (load == "") {
		return errors.New("exactly one of -train or -load is required (or -follow URL to replicate a leader)")
	}
	if streamMode && serve == "" {
		return errors.New("-stream requires -serve (ingest arrives over POST /ingest)")
	}
	return nil
}

// validateShards bounds -ingest-shards: 0 (auto) and 1..64 are valid;
// each shard holds a full -sample buffer, so counts past 64 buy no
// parallelism and multiply memory.
func validateShards(shards int) error {
	if shards < 0 {
		return fmt.Errorf("-ingest-shards must be >= 0 (got %d; 0 means one per core)", shards)
	}
	if shards > 64 {
		return fmt.Errorf("-ingest-shards %d is past the sanity cap of 64 (each shard holds a full -sample buffer; more shards than cores buys nothing)", shards)
	}
	return nil
}

// resolveShards maps the -ingest-shards flag to a stream.Config.Shards
// value: 0 (auto) becomes one shard per core, explicit counts pass
// through. The mapping lives here — not in stream.Config, whose zero
// value stays at one shard — so only operators who opt in get sharding.
func resolveShards(shards int) int {
	if shards == 0 {
		return tkdc.DefaultIngestShards()
	}
	return shards
}

// validateBackend fails fast on an unknown -backend value, before any
// CSV is read or training starts, listing the valid names.
func validateBackend(name string) error {
	for _, b := range tkdc.Backends() {
		if name == b {
			return nil
		}
	}
	return fmt.Errorf("unknown -backend %q (valid: %s)", name, strings.Join(tkdc.Backends(), ", "))
}

// writeResults classifies queries and writes one line per row to w:
// the label, or with density the label and its density bounds. Labels
// go through ClassifyAll and bounds through ScoreFlat, so the per-query
// sweep runs on the classifier's Workers goroutines; every line is
// bit-identical to per-row Score output. A malformed row fails the
// whole batch, and the error names its index.
func writeResults(w io.Writer, clf *tkdc.Classifier, queries [][]float64, density bool) error {
	if !density {
		labels, err := clf.ClassifyAll(queries)
		if err != nil {
			return err
		}
		for _, label := range labels {
			fmt.Fprintln(w, label)
		}
		return nil
	}
	dim := clf.Dim()
	flat := make([]float64, 0, len(queries)*dim)
	for i, q := range queries {
		if len(q) != dim {
			return fmt.Errorf("query %d has dimension %d, want %d", i, len(q), dim)
		}
		flat = append(flat, q...)
	}
	results, err := clf.ScoreFlat(flat, len(queries))
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Fprintf(w, "%s,%g,%g\n", r.Label, r.Lower, r.Upper)
	}
	return nil
}

// indent prefixes every line for the stderr telemetry block.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}

func readCSVFile(path string) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tkdc:", err)
	os.Exit(1)
}
