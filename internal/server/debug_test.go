package server

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tkdc/internal/core"
	"tkdc/internal/telemetry"
)

// tracedServer builds a server whose registry carries a flight recorder,
// over a classifier trained on dim-dimensional data (grid disabled so
// every query leaves a staged traversal trace).
func tracedServer(t *testing.T, dim int) (*httptest.Server, *telemetry.FlightRecorder) {
	t.Helper()
	reg := telemetry.NewRegistry()
	flight := telemetry.NewFlightRecorder(telemetry.FlightOptions{K: 16})
	reg.AttachFlightRecorder(flight)
	cfg := core.DefaultConfig()
	cfg.S0 = 2000
	cfg.DisableGrid = true
	cfg.Recorder = reg
	clf, err := core.Train(gaussRows(1000, dim, 1, 23), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The server finds the flight recorder through the registry.
	ts := httptest.NewServer(New(clf, Options{Registry: reg}))
	t.Cleanup(ts.Close)
	return ts, flight
}

func TestDebugQueriesWithoutRecorder(t *testing.T) {
	ts, _ := testServer(t)
	resp, body := getJSON(t, ts.URL+"/debug/queries")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (probe-friendly, not 404)", resp.StatusCode)
	}
	if body["enabled"] != false {
		t.Fatalf("enabled = %v, want false", body["enabled"])
	}
}

func TestDebugQueriesMethodNotAllowed(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Post(ts.URL+"/debug/queries", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
}

// TestDebugQueriesServesTraces is the endpoint acceptance test, run for
// both starts with data of a dimension that trains with each:
// classified queries appear as flight records with identity fields and
// per-stage breakdowns.
func TestDebugQueriesServesTraces(t *testing.T) {
	for _, st := range starts {
		backend := st.backend
		t.Run(backend, func(t *testing.T) {
			ts, _ := tracedServer(t, st.dim)
			var resp scoredResponse
			if err := postRows(ts.URL+"/classify", gaussRows(3, st.dim, 2, 24), &resp); err != nil {
				t.Fatal(err)
			}

			dresp, err := http.Get(ts.URL + "/debug/queries")
			if err != nil {
				t.Fatal(err)
			}
			defer dresp.Body.Close()
			if dresp.StatusCode != http.StatusOK {
				t.Fatalf("debug status = %d, want 200", dresp.StatusCode)
			}
			var snap struct {
				Enabled bool  `json:"enabled"`
				Traced  int64 `json:"traced"`
				Slowest []struct {
					Kind    string `json:"kind"`
					Backend string `json:"backend"`
					Label   string `json:"label"`
					Stages  []struct {
						Name string `json:"name"`
					} `json:"stages"`
				} `json:"slowest"`
				Recent []json.RawMessage `json:"recent"`
			}
			if err := json.NewDecoder(dresp.Body).Decode(&snap); err != nil {
				t.Fatal(err)
			}
			if !snap.Enabled || snap.Traced != 3 {
				t.Fatalf("enabled=%v traced=%d, want true/3", snap.Enabled, snap.Traced)
			}
			if len(snap.Slowest) != 3 || len(snap.Recent) != 3 {
				t.Fatalf("slowest=%d recent=%d, want 3/3", len(snap.Slowest), len(snap.Recent))
			}
			for _, tr := range snap.Slowest {
				if tr.Kind != "score" || tr.Backend != backend {
					t.Fatalf("trace kind/backend = %q/%q, want score/%s", tr.Kind, tr.Backend, backend)
				}
				if tr.Label == "" {
					t.Fatal("trace missing label")
				}
				if len(tr.Stages) == 0 {
					t.Fatalf("%s trace has no per-stage breakdown", backend)
				}
			}
		})
	}
}

// TestMetricsExpositionGolden pins the /metrics surface: the exact
// sequence of `# TYPE` declarations with a streaming service and flight
// recorder attached. Values change run to run; the metric roster and
// their declared types are the contract dashboards scrape against, so
// additions or renames must show up here.
func TestMetricsExpositionGolden(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.AttachFlightRecorder(telemetry.NewFlightRecorder(telemetry.FlightOptions{}))
	ts, _ := streamServer(t, Options{Registry: reg})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	var types []string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	want := []string{
		"tkdc_queries_total counter",
		"tkdc_grid_hits_total counter",
		"tkdc_grid_misses_total counter",
		"tkdc_query_latency_ns histogram",
		"tkdc_query_kernels histogram",
		"tkdc_query_nodes histogram",
		"tkdc_model_points gauge",
		"tkdc_model_dim gauge",
		"tkdc_model_threshold gauge",
		"tkdc_model_generation gauge",
		"tkdc_model_age_seconds gauge",
		"tkdc_backend gauge",
		"tkdc_train_kernels_total gauge",
		"tkdc_train_bootstrap_rounds gauge",
		"tkdc_train_workers gauge",
		"tkdc_train_phase_workers gauge",
		"tkdc_tree_nodes gauge",
		"tkdc_tree_leaves gauge",
		"tkdc_tree_max_depth gauge",
		"tkdc_grid_cells gauge",
		"tkdc_http_requests_total counter",
		"tkdc_stream_ingested_total counter",
		"tkdc_stream_retrains_total counter",
		"tkdc_stream_sample_size gauge",
		"tkdc_stream_sample_capacity gauge",
		"tkdc_stream_pending_rows gauge",
		"tkdc_stream_sample_fill gauge",
		"tkdc_stream_drift_probes_total counter",
		"tkdc_stream_drift_score gauge",
		"tkdc_stream_last_retrain_seconds gauge",
		"tkdc_snapshot_bytes gauge",
		"tkdc_snapshot_fetches_total counter",
		"tkdc_snapshot_not_modified_total counter",
		"tkdc_traces_total counter",
		"tkdc_traces_straddling_total counter",
		"tkdc_slow_queries_total counter",
		"go_goroutines gauge",
	}
	if len(types) != len(want) {
		t.Fatalf("metric roster has %d TYPE declarations, want %d:\ngot %v", len(types), len(want), types)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("TYPE[%d] = %q, want %q", i, types[i], want[i])
		}
	}
	if resp.Header.Get("Content-Type") != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type = %q", resp.Header.Get("Content-Type"))
	}
}

// gaussRows generates n dim-dimensional normal rows with standard
// deviation scale.
func gaussRows(n, dim int, scale float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = scale * rng.NormFloat64()
		}
	}
	return rows
}
