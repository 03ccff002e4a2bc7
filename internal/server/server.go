// Package server implements the tkdc -serve HTTP mode: classification
// over HTTP (CSV or JSON rows) with structured request logging, plus the
// observability surface — /metrics (plain-text exposition of the
// telemetry registry and model gauges), /model, /healthz,
// /debug/queries (the registry's flight recorder), Go's own expvar
// variables at /debug/vars, and the net/http/pprof profiling handlers at
// /debug/pprof/*.
//
// Every request reads the model through a stream.Model handle — one
// atomic pointer load — so the same handlers serve a static classifier
// and a live, continuously retrained one. With Options.Stream set, the
// server additionally accepts POST /ingest (CSV or JSON rows into the
// bounded sample, same parser and limits as /classify) and reports the
// lifecycle on GET /model and the /metrics stream gauges.
package server

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"tkdc/internal/core"
	"tkdc/internal/fleet"
	"tkdc/internal/stream"
	"tkdc/internal/telemetry"
)

// DefaultMaxBodyBytes caps classify request bodies when Options leaves
// MaxBodyBytes zero.
const DefaultMaxBodyBytes = 32 << 20

// Options configures New.
type Options struct {
	// Registry supplies the telemetry behind /metrics and, through its
	// attached flight recorder, /debug/queries; nil falls back to
	// telemetry.Default. For the histograms to move, the classifier's
	// recorder must point at the same registry (the CLI wires both).
	Registry *telemetry.Registry
	// Logger receives one structured line per request; nil disables
	// request logging.
	Logger *slog.Logger
	// MaxBodyBytes caps classify request bodies (DefaultMaxBodyBytes
	// if 0).
	MaxBodyBytes int64
	// Stream, when non-nil, serves that streaming lifecycle: queries go
	// through its live Model handle (the initial classifier passed to New
	// is ignored), POST /ingest feeds its sample, and GET /model +
	// /metrics expose generation/age/ingest state. The caller owns the
	// service lifecycle (Start/Close).
	Stream *stream.Service
	// Follower, when non-nil, makes this a replication replica: queries
	// read the follower's live Model handle (clf and Stream are ignored),
	// /model reports leader URL and generation lag, and /healthz answers
	// 503 once the follower goes stale so load balancers drain it. The
	// follower must have completed its first Sync (Model() non-nil) and
	// the caller owns its lifecycle (Sync/Start/Close).
	Follower *fleet.Follower
	// Publisher overrides the snapshot publisher behind GET /snapshot
	// and /snapshot/meta. Nil builds one over the serving model handle —
	// every server is a valid replication leader (including a follower,
	// which makes fan-out chains possible).
	Publisher *fleet.Publisher
}

// Server serves classification and observability endpoints over one
// trained classifier. It implements http.Handler; every request passes
// through the structured-logging middleware.
type Server struct {
	model    *stream.Model   // zero-downtime read handle; never nil
	svc      *stream.Service // nil when serving a static model
	follower *fleet.Follower // nil unless replicating a leader
	pub      *fleet.Publisher
	reg      *telemetry.Registry
	log      *slog.Logger
	max      int64
	mux      *http.ServeMux

	started  time.Time
	requests atomic.Int64
}

// New builds a Server over a trained classifier, wrapped in a
// generation-1 Model handle. With opts.Stream set, the server serves
// that lifecycle's live handle instead and clf may be nil.
func New(clf *core.Classifier, opts Options) *Server {
	s := &Server{
		svc:      opts.Stream,
		follower: opts.Follower,
		reg:      opts.Registry,
		log:      opts.Logger,
		max:      opts.MaxBodyBytes,
		mux:      http.NewServeMux(),
		started:  time.Now(),
	}
	switch {
	case s.follower != nil:
		s.model = s.follower.Model()
		if s.model == nil {
			panic("server: New with an unsynced follower (call Follower.Sync first)")
		}
	case s.svc != nil:
		s.model = s.svc.Model()
	default:
		s.model = stream.NewModel(clf)
	}
	s.pub = opts.Publisher
	if s.pub == nil {
		s.pub = fleet.NewPublisher(s.model)
	}
	if s.reg == nil {
		s.reg = telemetry.Default
	}
	if s.max <= 0 {
		s.max = DefaultMaxBodyBytes
	}

	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/classify", s.handleClassify)
	s.mux.HandleFunc("/ingest", s.handleIngest)
	s.mux.HandleFunc("/model", s.handleModel)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/snapshot", s.pub.ServeSnapshot)
	s.mux.HandleFunc("/snapshot/meta", s.handleSnapshotMeta)
	s.mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	s.mux.Handle("/debug/vars", expvar.Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Close is a no-op: every request is answered on its own goroutine, so
// there is nothing left to flush once the HTTP server has drained. It
// is kept for callers that pair New with Close.
func (s *Server) Close() {}

// ServeHTTP dispatches through the logging middleware.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.log == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	s.log.Info("request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.status),
		slog.Int64("bytes", sw.bytes),
		slog.Duration("duration", time.Since(start)),
		slog.String("remote", r.RemoteAddr),
	)
}

// statusWriter captures the status code and body size for the request
// log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so pprof's streaming
// endpoints (profile, trace) keep working through the middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handleHealthz answers 200 while the replica is fit to serve. A
// follower past its staleness threshold answers 503 ("stale") so load
// balancers drain it — it still serves /classify from the last good
// model; the health flip is advisory draining, not a hard stop.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	clf, gen, _ := s.model.View()
	resp := map[string]any{
		"status":         "ok",
		"n":              clf.N(),
		"dim":            clf.Dim(),
		"threshold":      clf.Threshold(),
		"generation":     gen,
		"uptime_seconds": time.Since(s.started).Seconds(),
	}
	code := http.StatusOK
	if s.follower != nil {
		fs := s.follower.Stats()
		resp["role"] = "follower"
		resp["generation_lag"] = fs.GenerationLag
		resp["last_sync_seconds"] = fs.SinceSync.Seconds()
		if fs.Stale {
			resp["status"] = "stale"
			code = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, code, resp)
}

// handleSnapshotMeta serves GET /snapshot/meta: the current generation's
// descriptor (generation, byte size, SHA-256, backend, trained-at)
// without the bytes, so `curl /snapshot/meta` answers "is the fleet
// converged" cheaply.
func (s *Server) handleSnapshotMeta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET the current snapshot descriptor")
		return
	}
	meta, err := s.pub.CurrentMeta()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, meta)
}

// classifyResult is one per-point response entry in density mode.
// Upper is nil, and its key omitted, only when the bound is +Inf (a
// grid hit); a certified upper bound of 0 is written as 0.
type classifyResult struct {
	Label    string   `json:"label"`
	Lower    float64  `json:"lower"`
	Upper    *float64 `json:"upper,omitempty"`
	Estimate float64  `json:"estimate"`
}

// handleClassify answers POST /classify inline: parse the body into a
// flat buffer, answer every row from one pinned model generation (a
// retrain swapping mid-request cannot split it), and echo that
// generation. Both modes run the per-query sweep across the model's
// worker budget, so every row is answered exactly as Score answers it.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST a CSV or JSON body of query rows")
		return
	}
	flat, n, _, ok := s.readRowsFlat(w, r)
	if !ok {
		return
	}

	if wantDensity(r) {
		scored, gen, err := s.model.ScoreFlat(flat, n)
		putFlatBuf(flat)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		results := make([]classifyResult, n)
		for i, res := range scored {
			cr := classifyResult{Label: res.Label.String(), Lower: res.Lower, Estimate: res.Estimate()}
			if !math.IsInf(res.Upper, 1) {
				cr.Upper = &scored[i].Upper
			}
			results[i] = cr
		}
		writeJSON(w, http.StatusOK, map[string]any{"results": results, "generation": gen})
		return
	}

	labels, gen, err := s.model.ClassifyFlat(flat, n)
	putFlatBuf(flat)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	out := make([]string, n)
	for i, l := range labels {
		out[i] = l.String()
	}
	writeJSON(w, http.StatusOK, map[string]any{"labels": out, "generation": gen})
}

// readRowsFlat reads and parses a CSV/JSON row body into a pooled flat
// row-major buffer, writing the error response itself (nil, false means
// the response is written). A large CSV body parses across the live
// model's worker budget, so -workers 1 parses serially. On success the
// caller owns the buffer and must release it with putFlatBuf once it is
// done with the rows.
func (s *Server) readRowsFlat(w http.ResponseWriter, r *http.Request) (flat []float64, n, dim int, ok bool) {
	body := getBodyBuf()
	defer putBodyBuf(body)
	if _, err := body.ReadFrom(io.LimitReader(r.Body, s.max+1)); err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return nil, 0, 0, false
	}
	if int64(body.Len()) > s.max {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", s.max))
		return nil, 0, 0, false
	}
	workers := s.model.Current().Config().Workers
	flat, n, dim, err := parseRowsFlat(r.Header.Get("Content-Type"), body.Bytes(), getFlatBuf(), workers)
	if err != nil {
		putFlatBuf(flat)
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, 0, 0, false
	}
	if n == 0 {
		putFlatBuf(flat)
		writeError(w, http.StatusBadRequest, "no rows in body")
		return nil, 0, 0, false
	}
	return flat, n, dim, true
}

// handleIngest feeds a batch of rows into the streaming sample. It
// mirrors /classify's request semantics exactly: CSV or JSON body, 413
// past the body cap, 400 on malformed or empty rows (a bad row rejects
// the whole batch). Returns 409 when the server is not in streaming
// mode.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.svc == nil {
		writeError(w, http.StatusConflict, "streaming disabled: start the server with -stream to accept ingest")
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST a CSV or JSON body of data rows")
		return
	}
	flat, _, dim, ok := s.readRowsFlat(w, r)
	if !ok {
		return
	}
	accepted, err := s.svc.IngestFlat(flat, dim)
	putFlatBuf(flat)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	st := s.svc.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"accepted":       accepted,
		"ingested_total": st.Ingested,
		"sample_size":    st.SampleSize,
		"generation":     st.Generation,
	})
}

// handleModel reports the live model and, in streaming mode, the
// lifecycle around it.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET the live model descriptor")
		return
	}
	clf, gen, born := s.model.View()
	resp := map[string]any{
		"generation":  gen,
		"age_seconds": time.Since(born).Seconds(),
		"n":           clf.N(),
		"dim":         clf.Dim(),
		"threshold":   clf.Threshold(),
		"bandwidths":  clf.Bandwidths(),
		"backend":     clf.Backend(),
		"streaming":   s.svc != nil,
	}
	// Fleet state, debuggable with curl: what bytes this process would
	// hand a follower, and (as a follower) how far behind the leader it
	// is. CurrentMeta is cached per generation, so this stays cheap.
	if meta, err := s.pub.CurrentMeta(); err == nil {
		resp["snapshot_sha256"] = meta.SHA256
		resp["snapshot_bytes"] = meta.Bytes
	}
	if s.follower != nil {
		fs := s.follower.Stats()
		resp["role"] = "follower"
		resp["leader_url"] = fs.LeaderURL
		resp["leader_generation"] = fs.LeaderGeneration
		resp["applied_generation"] = fs.AppliedGeneration
		resp["generation_lag"] = fs.GenerationLag
		resp["last_sync_seconds"] = fs.SinceSync.Seconds()
		resp["stale"] = fs.Stale
		resp["syncs"] = fs.Applied
		resp["poll_failures"] = fs.Failures
		resp["rejected_snapshots"] = fs.Rejected
		if fs.LastError != "" {
			resp["last_error"] = fs.LastError
		}
	} else {
		resp["role"] = "leader"
	}
	if s.svc != nil {
		st := s.svc.Stats()
		resp["ingested_total"] = st.Ingested
		resp["sample_size"] = st.SampleSize
		resp["sample_capacity"] = st.Capacity
		resp["window"] = st.Window
		resp["retrains"] = st.Retrains
		resp["pending"] = st.Pending
		resp["drift_score"] = st.DriftScore
		resp["drift_probes"] = st.DriftProbes
		if st.LastRetrainReason != "" {
			resp["last_retrain_reason"] = st.LastRetrainReason
			resp["last_retrain_seconds"] = st.LastRetrainDuration.Seconds()
		}
		if st.LastError != "" {
			resp["last_error"] = st.LastError
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDebugQueries serves the flight recorder's retained traces as
// JSON: the K slowest queries, the K most recent, and the K most recent
// whose density bounds straddled the classification threshold, each
// with its per-stage breakdown. Without a flight recorder it reports
// {"enabled": false} rather than 404, so dashboards can probe for the
// feature.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET the retained query traces")
		return
	}
	flight := s.reg.Flight()
	if flight == nil {
		writeJSON(w, http.StatusOK, telemetry.FlightSnapshot{})
		return
	}
	writeJSON(w, http.StatusOK, flight.Snapshot())
}

// wantDensity reports whether the request asked for density bounds
// alongside labels (?density=1).
func wantDensity(r *http.Request) bool {
	switch strings.ToLower(r.URL.Query().Get("density")) {
	case "1", "true", "yes":
		return true
	}
	return false
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	clf, gen, born := s.model.View()
	ts := clf.TrainStats()
	tree := clf.TreeStats()

	var b strings.Builder
	snap.WriteMetrics(&b)
	writeGauge := func(name string, v any) {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %v\n", name, name, v)
	}
	writeGauge("tkdc_model_points", clf.N())
	writeGauge("tkdc_model_dim", clf.Dim())
	writeGauge("tkdc_model_threshold", clf.Threshold())
	writeGauge("tkdc_model_generation", gen)
	writeGauge("tkdc_model_age_seconds", time.Since(born).Seconds())
	fmt.Fprintf(&b, "# TYPE tkdc_backend gauge\ntkdc_backend{name=%q} 1\n", clf.Backend())
	writeGauge("tkdc_train_kernels_total", ts.TrainKernels)
	writeGauge("tkdc_train_bootstrap_rounds", ts.BootstrapRounds)
	writeGauge("tkdc_train_workers", ts.Workers)
	if len(ts.Phases) > 0 {
		fmt.Fprintf(&b, "# TYPE tkdc_train_phase_workers gauge\n")
		for _, sp := range ts.Phases {
			fmt.Fprintf(&b, "tkdc_train_phase_workers{phase=%q} %d\n", sp.Name, sp.Workers)
		}
	}
	writeGauge("tkdc_tree_nodes", tree.Nodes)
	writeGauge("tkdc_tree_leaves", tree.Leaves)
	writeGauge("tkdc_tree_max_depth", tree.MaxDepth)
	writeGauge("tkdc_grid_cells", ts.GridCells)
	fmt.Fprintf(&b, "# TYPE tkdc_http_requests_total counter\ntkdc_http_requests_total %d\n", s.requests.Load())
	if s.svc != nil {
		st := s.svc.Stats()
		fmt.Fprintf(&b, "# TYPE tkdc_stream_ingested_total counter\ntkdc_stream_ingested_total %d\n", st.Ingested)
		fmt.Fprintf(&b, "# TYPE tkdc_stream_retrains_total counter\ntkdc_stream_retrains_total %d\n", st.Retrains)
		writeGauge("tkdc_stream_sample_size", st.SampleSize)
		writeGauge("tkdc_stream_sample_capacity", st.Capacity)
		writeGauge("tkdc_stream_pending_rows", st.Pending)
		if st.Capacity > 0 {
			writeGauge("tkdc_stream_sample_fill", float64(st.SampleSize)/float64(st.Capacity))
		}
		fmt.Fprintf(&b, "# TYPE tkdc_stream_drift_probes_total counter\ntkdc_stream_drift_probes_total %d\n", st.DriftProbes)
		writeGauge("tkdc_stream_drift_score", st.DriftScore)
		writeGauge("tkdc_stream_last_retrain_seconds", st.LastRetrainDuration.Seconds())
	}
	if meta, err := s.pub.CurrentMeta(); err == nil {
		writeGauge("tkdc_snapshot_bytes", meta.Bytes)
	}
	fetches, notMod := s.pub.Counters()
	fmt.Fprintf(&b, "# TYPE tkdc_snapshot_fetches_total counter\ntkdc_snapshot_fetches_total %d\n", fetches)
	fmt.Fprintf(&b, "# TYPE tkdc_snapshot_not_modified_total counter\ntkdc_snapshot_not_modified_total %d\n", notMod)
	if s.follower != nil {
		fs := s.follower.Stats()
		writeGauge("tkdc_fleet_generation_lag", fs.GenerationLag)
		writeGauge("tkdc_fleet_last_sync_seconds", fs.SinceSync.Seconds())
		stale := 0
		if fs.Stale {
			stale = 1
		}
		writeGauge("tkdc_fleet_stale", stale)
		fmt.Fprintf(&b, "# TYPE tkdc_fleet_polls_total counter\ntkdc_fleet_polls_total %d\n", fs.Polls)
		fmt.Fprintf(&b, "# TYPE tkdc_fleet_syncs_total counter\ntkdc_fleet_syncs_total %d\n", fs.Applied)
		fmt.Fprintf(&b, "# TYPE tkdc_fleet_failures_total counter\ntkdc_fleet_failures_total %d\n", fs.Failures)
		fmt.Fprintf(&b, "# TYPE tkdc_fleet_rejected_total counter\ntkdc_fleet_rejected_total %d\n", fs.Rejected)
	}
	if flight := s.reg.Flight(); flight != nil {
		fs := flight.Snapshot()
		fmt.Fprintf(&b, "# TYPE tkdc_traces_total counter\ntkdc_traces_total %d\n", fs.Traced)
		fmt.Fprintf(&b, "# TYPE tkdc_traces_straddling_total counter\ntkdc_traces_straddling_total %d\n", fs.Straddled)
		fmt.Fprintf(&b, "# TYPE tkdc_slow_queries_total counter\ntkdc_slow_queries_total %d\n", fs.SlowLogged)
	}
	writeGauge("go_goroutines", runtime.NumGoroutine())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String())
}

// writeJSON encodes v to a buffer before touching the ResponseWriter so
// an encode failure surfaces as a 500 instead of a truncated 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":%q}`, "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
