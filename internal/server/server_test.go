package server

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"tkdc/internal/core"
	"tkdc/internal/telemetry"
)

// testServer trains a small 2-d classifier wired to a fresh registry and
// returns both behind an httptest server.
func testServer(t *testing.T) (*httptest.Server, *telemetry.Registry) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	data := make([][]float64, 1200)
	for i := range data {
		data[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	reg := telemetry.NewRegistry()
	cfg := core.DefaultConfig()
	cfg.S0 = 2000
	cfg.Recorder = reg
	clf, err := core.Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(clf, Options{Registry: reg}))
	t.Cleanup(ts.Close)
	return ts, reg
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, out
}

func TestHealthz(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("status field = %v, want ok", body["status"])
	}
	if body["n"].(float64) != 1200 || body["dim"].(float64) != 2 {
		t.Fatalf("model shape = n=%v d=%v, want n=1200 d=2", body["n"], body["dim"])
	}
}

func TestClassifyJSON(t *testing.T) {
	ts, _ := testServer(t)
	resp, out := postJSON(t, ts.URL+"/classify", `{"points":[[0,0],[50,50]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200: %v", resp.StatusCode, out)
	}
	labels := out["labels"].([]any)
	if len(labels) != 2 || labels[0] != "HIGH" || labels[1] != "LOW" {
		t.Fatalf("labels = %v, want [HIGH LOW]", labels)
	}
}

func TestClassifyBareJSONArray(t *testing.T) {
	ts, _ := testServer(t)
	resp, out := postJSON(t, ts.URL+"/classify", `[[0,0]]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200: %v", resp.StatusCode, out)
	}
	if labels := out["labels"].([]any); labels[0] != "HIGH" {
		t.Fatalf("labels = %v, want [HIGH]", labels)
	}
}

func TestClassifyCSV(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Post(ts.URL+"/classify", "text/csv", strings.NewReader("0,0\n50,50\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out struct {
		Labels []string `json:"labels"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if got := out.Labels; len(got) != 2 || got[0] != "HIGH" || got[1] != "LOW" {
		t.Fatalf("labels = %v, want [HIGH LOW]", got)
	}
}

func TestClassifyDensityMode(t *testing.T) {
	ts, _ := testServer(t)
	resp, out := postJSON(t, ts.URL+"/classify?density=1", `{"points":[[50,50]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200: %v", resp.StatusCode, out)
	}
	results := out["results"].([]any)
	r := results[0].(map[string]any)
	if r["label"] != "LOW" {
		t.Fatalf("label = %v, want LOW", r["label"])
	}
	// A far-away outlier never grid-hits, so both finite bounds appear.
	if _, ok := r["lower"]; !ok {
		t.Fatal("density result missing lower bound")
	}
	if _, ok := r["estimate"]; !ok {
		t.Fatal("density result missing estimate")
	}
}

func TestClassifyErrors(t *testing.T) {
	ts, _ := testServer(t)

	resp, err := http.Get(ts.URL + "/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}

	resp, out := postJSON(t, ts.URL+"/classify", `{"points":[[1,2,3]]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-dimension status = %d, want 400: %v", resp.StatusCode, out)
	}
	if _, ok := out["error"]; !ok {
		t.Fatal("error response has no error field")
	}

	resp, out = postJSON(t, ts.URL+"/classify", `{"points":[]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty-body status = %d, want 400: %v", resp.StatusCode, out)
	}

	resp, out = postJSON(t, ts.URL+"/classify", `{"points":`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed-JSON status = %d, want 400: %v", resp.StatusCode, out)
	}

	// Empty and whitespace-only bodies with a JSON content type must
	// come back 400, not panic on trimmed[0] (regression).
	for _, body := range []string{"", "   \n\t "} {
		resp, out = postJSON(t, ts.URL+"/classify", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("empty JSON body %q status = %d, want 400: %v", body, resp.StatusCode, out)
		}
		if _, ok := out["error"]; !ok {
			t.Fatalf("empty JSON body %q: error response has no error field", body)
		}
	}
}

func TestClassifyBodyTooLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([][]float64, 200)
	for i := range data {
		data[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	cfg := core.DefaultConfig()
	cfg.S0 = 2000
	clf, err := core.Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(clf, Options{MaxBodyBytes: 64}))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/classify", "text/csv", strings.NewReader(strings.Repeat("0,0\n", 100)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// metricValue extracts the value of a single-valued metric line.
func metricValue(t *testing.T, exposition, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseInt(line[len(name)+1:], 10, 64)
			if err != nil {
				t.Fatalf("parse %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

func getMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsUpdateAcrossRequests is the acceptance check: the query
// histograms on /metrics move as classify requests arrive.
func TestMetricsUpdateAcrossRequests(t *testing.T) {
	ts, reg := testServer(t)
	reg.Reset()

	before := getMetrics(t, ts.URL)
	if got := metricValue(t, before, "tkdc_queries_total"); got != 0 {
		t.Fatalf("queries before = %d, want 0", got)
	}
	for _, name := range []string{"tkdc_query_latency_ns_count", "tkdc_query_kernels_count",
		"tkdc_query_nodes_count", "tkdc_model_points", "tkdc_tree_nodes", "tkdc_http_requests_total"} {
		metricValue(t, before, name) // presence check
	}

	if resp, out := postJSON(t, ts.URL+"/classify", `{"points":[[0,0],[1,1],[50,50]]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status = %d: %v", resp.StatusCode, out)
	}

	after := getMetrics(t, ts.URL)
	if got := metricValue(t, after, "tkdc_queries_total"); got != 3 {
		t.Fatalf("queries after = %d, want 3", got)
	}
	if got := metricValue(t, after, "tkdc_query_latency_ns_count"); got != 3 {
		t.Fatalf("latency histogram count = %d, want 3", got)
	}
	if got := metricValue(t, after, "tkdc_query_kernels_count"); got != 3 {
		t.Fatalf("kernels histogram count = %d, want 3", got)
	}
	if hits, misses := metricValue(t, after, "tkdc_grid_hits_total"), metricValue(t, after, "tkdc_grid_misses_total"); hits+misses != 3 {
		t.Fatalf("grid hits+misses = %d+%d, want 3", hits, misses)
	}
	if before := metricValue(t, before, "tkdc_http_requests_total"); metricValue(t, after, "tkdc_http_requests_total") <= before {
		t.Fatal("http request counter did not advance")
	}
}

// TestModelReportsBackend checks the density backend shows up on every
// observability surface: the GET /model descriptor and the /metrics
// exposition (as a labeled gauge).
func TestModelReportsBackend(t *testing.T) {
	ts, _ := testServer(t)

	resp, err := http.Get(ts.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var model map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&model); err != nil {
		t.Fatal(err)
	}
	if model["backend"] != core.BackendTree {
		t.Fatalf("GET /model backend = %v, want %q (d=2 resolves to tree)", model["backend"], core.BackendTree)
	}

	metrics := getMetrics(t, ts.URL)
	want := `tkdc_backend{name="` + core.BackendTree + `"} 1`
	if !strings.Contains(metrics, want) {
		t.Fatalf("/metrics missing %q", want)
	}
}

func TestPprofAndExpvar(t *testing.T) {
	ts, _ := testServer(t)

	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expvar status = %d, want 200", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	// Go's own variables only: serving state is on /metrics and /model.
	for _, key := range []string{"cmdline", "memstats"} {
		if _, ok := vars[key]; !ok {
			t.Fatalf("expvar output missing %q", key)
		}
	}
	if _, ok := vars["tkdc"]; ok {
		t.Fatal("expvar output still carries a tkdc key")
	}
}
