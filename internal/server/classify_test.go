package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tkdc/internal/core"
	"tkdc/internal/telemetry"
)

// trainClf trains a small classifier on dim-dimensional Gaussian rows.
func trainClf(t *testing.T, seed int64, dim int) *core.Classifier {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.S0 = 2000
	clf, err := core.Train(gaussRows(1200, dim, 1, seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

// starts pairs each start with a dimension whose data trains with it.
var starts = []struct {
	backend string
	dim     int
}{
	{core.BackendTree, 2},
	{core.BackendSampling, core.AutoTreeMaxDim + 1},
}

// probeRows builds n 2-d probes spanning the dense core and the tails.
func probeRows(n int, seed int64) [][]float64 { return gaussRows(n, 2, 2, seed) }

// postRows POSTs rows as a JSON body (encoding/json writes each float in
// its shortest exact form, so the server parses the very same values)
// and decodes the 200 response into out. It returns an error rather
// than failing t so that concurrent requests can use it.
func postRows(url string, rows [][]float64, out any) error {
	body, err := json.Marshal(map[string]any{"points": rows})
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// scoredResponse is a /classify response in either mode.
type scoredResponse struct {
	Labels     []string         `json:"labels"`
	Results    []classifyResult `json:"results"`
	Generation *uint64          `json:"generation"`
}

// checkMatchesScore fails unless resp answers rows exactly as per-row
// Score does: the labels, or under density each row's label, bounds
// and estimate, bit-identical.
func checkMatchesScore(t *testing.T, clf *core.Classifier, rows [][]float64, density bool, resp scoredResponse) {
	t.Helper()
	if density && len(resp.Results) != len(rows) || !density && len(resp.Labels) != len(rows) {
		t.Fatalf("%d labels and %d results for %d rows (density=%v)", len(resp.Labels), len(resp.Results), len(rows), density)
	}
	for i, x := range rows {
		want, err := clf.Score(x)
		if err != nil {
			t.Fatal(err)
		}
		if !density {
			if resp.Labels[i] != want.Label.String() {
				t.Fatalf("row %d: label %s, want %v", i, resp.Labels[i], want.Label)
			}
			continue
		}
		got := resp.Results[i]
		// The upper key is absent exactly when the bound is +Inf.
		upperOK := got.Upper == nil && math.IsInf(want.Upper, 1) ||
			got.Upper != nil && *got.Upper == want.Upper
		if got.Label != want.Label.String() || got.Lower != want.Lower || !upperOK || got.Estimate != want.Estimate() {
			t.Fatalf("row %d: density result %+v, want %+v", i, got, want)
		}
	}
}

// TestBatchWindowZeroInline pins the inline contract of /classify (the
// name dates from the coalescing window, whose 0 setting was this same
// path and is now the only one): one request is answered by the
// serving model's current generation, which the response echoes, and
// its labels are bit-identical to per-row Score.
func TestBatchWindowZeroInline(t *testing.T) {
	clf := trainClf(t, 31, 2)
	srv := New(clf, Options{Registry: telemetry.NewRegistry()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rows := probeRows(16, 32)
	var resp scoredResponse
	if err := postRows(ts.URL+"/classify", rows, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Generation == nil {
		t.Fatal("response missing generation")
	}
	if *resp.Generation != srv.model.Generation() {
		t.Fatalf("generation = %d, want %d", *resp.Generation, srv.model.Generation())
	}
	checkMatchesScore(t, clf, rows, false, resp)
}

// TestBatchCoalescedBitIdentical pins concurrent /classify requests,
// mixed label and density mode, against per-row Score: every row of
// every response is bit-identical. The requests once coalesced into
// one flush; now each runs inline on pooled parse buffers, so this
// also guards against requests sharing state.
func TestBatchCoalescedBitIdentical(t *testing.T) {
	clf := trainClf(t, 33, 2)
	ts := httptest.NewServer(New(clf, Options{Registry: telemetry.NewRegistry()}))
	defer ts.Close()

	const calls, perCall = 6, 40
	rows := make([][][]float64, calls)
	for i := range rows {
		rows[i] = probeRows(perCall, int64(100+i))
	}

	got := make([]scoredResponse, calls)
	errs := make([]error, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := ts.URL + "/classify"
			if i%2 == 1 {
				url += "?density=1"
			}
			errs[i] = postRows(url, rows[i], &got[i])
		}(i)
	}
	wg.Wait()

	for i := range got {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		checkMatchesScore(t, clf, rows[i], i%2 == 1, got[i])
	}
}

// TestClassifyBulkMatchesScore pins the bulk label path under both
// starts, with data of a dimension that trains with each: a 512-row
// POST, answered by the parallel sweep, is bit-identical to per-row
// Score, and every row counts as one query in tkdc_queries_total and
// tkdc_query_latency_ns.
func TestClassifyBulkMatchesScore(t *testing.T) {
	for _, st := range starts {
		t.Run(st.backend, func(t *testing.T) {
			clf := trainClf(t, 35, st.dim)
			if clf.Backend() != st.backend {
				t.Fatalf("d=%d trained the %q start, want %q", st.dim, clf.Backend(), st.backend)
			}
			clf.SetWorkers(4)
			reg := telemetry.NewRegistry()
			clf.SetRecorder(reg)
			ts := httptest.NewServer(New(clf, Options{Registry: reg}))
			defer ts.Close()

			before := getMetrics(t, ts.URL)
			rows := gaussRows(512, st.dim, 2, 36)
			var resp scoredResponse
			if err := postRows(ts.URL+"/classify", rows, &resp); err != nil {
				t.Fatal(err)
			}
			after := getMetrics(t, ts.URL)
			for _, name := range []string{"tkdc_queries_total", "tkdc_query_latency_ns_count"} {
				if got := metricValue(t, after, name) - metricValue(t, before, name); got != int64(len(rows)) {
					t.Fatalf("%s rose by %d, want %d", name, got, len(rows))
				}
			}
			checkMatchesScore(t, clf, rows, false, resp)
		})
	}
}

// TestClassifyGenerationCoherenceUnderRetrain is the -race hammer:
// concurrent /classify requests (each repeating one probe row several
// times) race against retrain hot-swaps. Every response must be
// internally coherent — one pinned generation answered all of its
// rows, so identical rows in one request always agree — even though
// different responses may land on different generations.
func TestClassifyGenerationCoherenceUnderRetrain(t *testing.T) {
	ts, svc := streamServer(t, Options{})

	const workers, repeats, perWorker = 4, 6, 10
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, workers)
	fail := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(700 + w)))
			for i := 0; i < perWorker; i++ {
				select {
				case <-stop:
					return
				default:
				}
				x, y := rng.NormFloat64()*2, rng.NormFloat64()*2
				row := fmt.Sprintf("[%v,%v]", x, y)
				body := "[" + strings.Repeat(row+",", repeats-1) + row + "]"
				resp, err := http.Post(ts.URL+"/classify", "application/json", strings.NewReader(body))
				if err != nil {
					fail("post: " + err.Error())
					return
				}
				var out struct {
					Labels     []string `json:"labels"`
					Generation *uint64  `json:"generation"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					fail("decode: " + err.Error())
					return
				}
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Sprintf("status %d", resp.StatusCode))
					return
				}
				if len(out.Labels) != repeats {
					fail(fmt.Sprintf("%d labels, want %d", len(out.Labels), repeats))
					return
				}
				if out.Generation == nil {
					fail("response missing generation")
					return
				}
				for _, l := range out.Labels[1:] {
					if l != out.Labels[0] {
						fail(fmt.Sprintf("mixed generations in one response: %v (gen %d)", out.Labels, *out.Generation))
						return
					}
				}
			}
		}(w)
	}

	// Drive a few hot-swaps while the hammer runs.
	rng := rand.New(rand.NewSource(900))
	for i := 0; i < 3; i++ {
		rows := make([][]float64, 50)
		for j := range rows {
			rows[j] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		if _, err := svc.Ingest(rows); err != nil {
			t.Error(err)
			break
		}
		if err := svc.Retrain(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestDensityUpperKey pins the "upper" key of a ?density=1 answer
// against Score: it is absent exactly when Score's upper bound is +Inf
// (a grid hit), and a certified bound of exactly 0 (a row far from
// every training point) is written as 0, not dropped. The response
// decodes into maps, so an absent key cannot read as 0.
func TestDensityUpperKey(t *testing.T) {
	clf := trainClf(t, 37, 2)
	far := []float64{1e6, 1e6}
	var hit []float64
	for _, x := range probeRows(64, 38) {
		if res, err := clf.Score(x); err == nil && math.IsInf(res.Upper, 1) {
			hit = x
			break
		}
	}
	if hit == nil {
		t.Fatal("no probe row hits the grid")
	}
	if res, err := clf.Score(far); err != nil || res.Upper != 0 {
		t.Fatalf("far row: Score upper %v (err %v), want a certified 0", res.Upper, err)
	}
	ts := httptest.NewServer(New(clf, Options{Registry: telemetry.NewRegistry()}))
	defer ts.Close()

	var resp struct {
		Results []map[string]any `json:"results"`
	}
	if err := postRows(ts.URL+"/classify?density=1", [][]float64{far, hit}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("%d results, want 2", len(resp.Results))
	}
	if upper, ok := resp.Results[0]["upper"]; !ok || upper != 0.0 {
		t.Fatalf("far row: %v, want \"upper\":0", resp.Results[0])
	}
	if upper, ok := resp.Results[1]["upper"]; ok {
		t.Fatalf("grid hit: \"upper\":%v, want the key omitted", upper)
	}
}
