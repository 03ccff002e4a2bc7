package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"tkdc/internal/core"
	"tkdc/internal/stream"
	"tkdc/internal/telemetry"
)

// streamServer builds a streaming-mode server (no background retrainer;
// tests drive retrains explicitly) over a small 2-d classifier.
func streamServer(t *testing.T, opts Options) (*httptest.Server, *stream.Service) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	data := make([][]float64, 800)
	for i := range data {
		data[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	cfg := core.DefaultConfig()
	cfg.S0 = 2000
	clf, err := core.Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := stream.NewService(clf, stream.Config{Capacity: 2000, Seed: 7, Prefill: true})
	if err != nil {
		t.Fatal(err)
	}
	opts.Stream = svc
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	ts := httptest.NewServer(New(nil, opts))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return ts, svc
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
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

// TestIngestRoundTrip covers the acceptance criterion: /ingest accepts
// CSV and JSON batches with /classify's exact semantics, /model reflects
// them, and a retrain advances the generation served to both endpoints.
func TestIngestRoundTrip(t *testing.T) {
	ts, svc := streamServer(t, Options{})

	resp, out := postJSON(t, ts.URL+"/ingest", `{"points":[[0.5,0.5],[1,1]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON ingest status = %d: %v", resp.StatusCode, out)
	}
	if out["accepted"].(float64) != 2 {
		t.Fatalf("accepted = %v, want 2", out["accepted"])
	}
	if out["ingested_total"].(float64) != 802 { // 800 prefill + 2
		t.Fatalf("ingested_total = %v, want 802", out["ingested_total"])
	}

	csvResp, err := http.Post(ts.URL+"/ingest", "text/csv", strings.NewReader("0.1,0.2\n-0.3,0.4\n0.5,-0.6\n"))
	if err != nil {
		t.Fatal(err)
	}
	csvResp.Body.Close()
	if csvResp.StatusCode != http.StatusOK {
		t.Fatalf("CSV ingest status = %d, want 200", csvResp.StatusCode)
	}

	resp, model := getJSON(t, ts.URL+"/model")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/model status = %d: %v", resp.StatusCode, model)
	}
	if model["generation"].(float64) != 1 || model["streaming"] != true {
		t.Fatalf("model descriptor = %v, want generation 1, streaming true", model)
	}
	if model["ingested_total"].(float64) != 805 {
		t.Fatalf("ingested_total = %v, want 805", model["ingested_total"])
	}

	if err := svc.Retrain(); err != nil {
		t.Fatal(err)
	}
	_, model = getJSON(t, ts.URL+"/model")
	if model["generation"].(float64) != 2 {
		t.Fatalf("generation after retrain = %v, want 2", model["generation"])
	}
	if _, out := postJSON(t, ts.URL+"/classify", `{"points":[[0,0]]}`); out["labels"].([]any)[0] != "HIGH" {
		t.Fatalf("classify after retrain = %v, want [HIGH]", out["labels"])
	}
}

// TestIngestErrors mirrors /classify's error semantics on /ingest: 405
// on GET, 400 on malformed/empty/bad-dimension rows (whole batch
// rejected), 413 past the body cap, 409 without streaming.
func TestIngestErrors(t *testing.T) {
	ts, svc := streamServer(t, Options{MaxBodyBytes: 256})

	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}

	before := svc.Stats().Ingested
	for body, name := range map[string]string{
		`{"points":[[1,2],[1,2,3]]}`: "bad dimension",
		`{"points":[[1,2],[NaN,2]]}`: "malformed JSON",
		`{"points":[]}`:              "empty batch",
		``:                           "empty body",
	} {
		resp, out := postJSON(t, ts.URL+"/ingest", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s status = %d, want 400: %v", name, resp.StatusCode, out)
		}
		if _, ok := out["error"]; !ok {
			t.Fatalf("%s: error response has no error field", name)
		}
	}
	if after := svc.Stats().Ingested; after != before {
		t.Fatalf("rejected batches changed ingested count: %d -> %d", before, after)
	}

	big, err := http.Post(ts.URL+"/ingest", "text/csv", strings.NewReader(strings.Repeat("0,0\n", 200)))
	if err != nil {
		t.Fatal(err)
	}
	big.Body.Close()
	if big.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized status = %d, want 413", big.StatusCode)
	}
}

// TestNullCoordinateRejected: a JSON null coordinate is a 400 on both
// /classify and /ingest, never a point at 0, so a rejected ingest adds
// nothing to the training sample.
func TestNullCoordinateRejected(t *testing.T) {
	ts, _ := streamServer(t, Options{})
	for _, tc := range []struct{ path, body string }{
		{"/classify", `[[1,null]]`},
		{"/ingest", `{"points":[[null,2]]}`},
	} {
		resp, out := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s: status = %d, want 400: %v", tc.path, tc.body, resp.StatusCode, out)
		}
		if msg, _ := out["error"].(string); !strings.Contains(msg, "is null") {
			t.Fatalf("%s %s: error %q does not name the null coordinate", tc.path, tc.body, msg)
		}
	}
	if _, model := getJSON(t, ts.URL+"/model"); model["ingested_total"].(float64) != 800 {
		t.Fatalf("ingested_total = %v, want 800 (prefill only)", model["ingested_total"])
	}
}

// TestIngestWithoutStreaming: a static server refuses ingest with 409
// and says how to enable it, and /model still serves the descriptor.
func TestIngestWithoutStreaming(t *testing.T) {
	ts, _ := testServer(t)
	resp, out := postJSON(t, ts.URL+"/ingest", `{"points":[[0,0]]}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409: %v", resp.StatusCode, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "-stream") {
		t.Fatalf("409 error %q does not mention -stream", msg)
	}

	resp, model := getJSON(t, ts.URL+"/model")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/model status = %d: %v", resp.StatusCode, model)
	}
	if model["streaming"] != false || model["generation"].(float64) != 1 {
		t.Fatalf("static /model = %v, want streaming false, generation 1", model)
	}
	if _, ok := model["ingested_total"]; ok {
		t.Fatal("static /model leaked stream fields")
	}
}

// TestStreamMetrics checks the streaming gauges appear on /metrics and
// track ingest and retrains.
func TestStreamMetrics(t *testing.T) {
	ts, svc := streamServer(t, Options{})

	exp := getMetrics(t, ts.URL)
	if got := metricValue(t, exp, "tkdc_stream_ingested_total"); got != 800 {
		t.Fatalf("ingested_total = %d, want 800 (prefill)", got)
	}
	if got := metricValue(t, exp, "tkdc_model_generation"); got != 1 {
		t.Fatalf("generation = %d, want 1", got)
	}
	if !strings.Contains(exp, "tkdc_model_age_seconds ") {
		t.Fatal("exposition missing tkdc_model_age_seconds")
	}
	metricValue(t, exp, "tkdc_stream_sample_capacity")

	if _, out := postJSON(t, ts.URL+"/ingest", `{"points":[[0.2,0.1]]}`); out["accepted"].(float64) != 1 {
		t.Fatalf("ingest failed: %v", out)
	}
	if err := svc.Retrain(); err != nil {
		t.Fatal(err)
	}
	exp = getMetrics(t, ts.URL)
	if got := metricValue(t, exp, "tkdc_stream_ingested_total"); got != 801 {
		t.Fatalf("ingested_total = %d, want 801", got)
	}
	if got := metricValue(t, exp, "tkdc_stream_retrains_total"); got != 1 {
		t.Fatalf("retrains_total = %d, want 1", got)
	}
	if got := metricValue(t, exp, "tkdc_model_generation"); got != 2 {
		t.Fatalf("generation = %d, want 2", got)
	}
	if got := metricValue(t, exp, "tkdc_stream_sample_size"); got != 801 {
		t.Fatalf("sample_size = %d, want 801", got)
	}
}

// TestCountersMonotoneAcrossRetrain scrapes /metrics around a retrain
// and checks that no series declared a counter went down. A counter
// kept on one model generation would fall back to zero on every swap.
func TestCountersMonotoneAcrossRetrain(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.AttachFlightRecorder(telemetry.NewFlightRecorder(telemetry.FlightOptions{}))
	ts, svc := streamServer(t, Options{Registry: reg})
	// streamServer trains without a recorder; record the live generation
	// into reg so the query and trace counters move.
	clf, _, _ := svc.Model().View()
	clf.SetRecorder(reg)
	if resp, out := postJSON(t, ts.URL+"/classify", `{"points":[[0,0],[0.1,0.1],[0.2,-0.1],[6,6]]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status = %d: %v", resp.StatusCode, out)
	}

	before := counterValues(t, getMetrics(t, ts.URL))
	if before["tkdc_queries_total"] != 4 || before["tkdc_traces_total"] != 4 {
		t.Fatalf("queries = %v, traces = %v before the retrain; want 4 each",
			before["tkdc_queries_total"], before["tkdc_traces_total"])
	}
	if err := svc.Retrain(); err != nil {
		t.Fatal(err)
	}
	after := counterValues(t, getMetrics(t, ts.URL))
	for name, v := range before {
		if after[name] < v {
			t.Errorf("counter %s fell from %v to %v across a retrain", name, v, after[name])
		}
	}
}

// counterValues maps each series an exposition declares with
// `# TYPE <name> counter` to its value.
func counterValues(t *testing.T, exposition string) map[string]float64 {
	t.Helper()
	counters := map[string]bool{}
	values := map[string]float64{}
	for _, line := range strings.Split(exposition, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && f[3] == "counter" {
			counters[f[2]] = true
			continue
		}
		name, v, ok := strings.Cut(line, " ")
		if !ok || !counters[name] {
			continue
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		values[name] = x
	}
	return values
}
