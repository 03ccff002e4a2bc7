package telemetry

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// fileTrace builds and files one synthetic trace through the recorder,
// returning it for assertions.
func fileTrace(f *FlightRecorder, lat time.Duration, straddle bool) *QueryTrace {
	t := f.StartTrace()
	t.Kind = "score"
	t.Backend = "tree"
	t.Latency = lat
	t.Straddle = straddle
	f.FinishTrace(t)
	return t
}

func TestFlightRecorderSlowestRetention(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{K: 8})
	// File 100 traces with strictly increasing latency: the slowest 8 are
	// exactly the last 8 filed.
	for i := 1; i <= 100; i++ {
		fileTrace(f, time.Duration(i)*time.Microsecond, false)
	}
	snap := f.Snapshot()
	if snap.Traced != 100 {
		t.Fatalf("Traced = %d, want 100", snap.Traced)
	}
	if len(snap.Slowest) != 8 {
		t.Fatalf("Slowest holds %d traces, want 8", len(snap.Slowest))
	}
	for i, tr := range snap.Slowest {
		want := time.Duration(100-i) * time.Microsecond
		if tr.Latency != want {
			t.Fatalf("Slowest[%d].Latency = %v, want %v (slowest-first order)", i, tr.Latency, want)
		}
	}
}

func TestFlightRecorderRecentRetention(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{K: 8})
	for i := 0; i < 50; i++ {
		fileTrace(f, time.Microsecond, false)
	}
	snap := f.Snapshot()
	if len(snap.Recent) != 8 {
		t.Fatalf("Recent holds %d traces, want 8", len(snap.Recent))
	}
	// Newest-first: IDs 50..43 (StartTrace issues IDs from 1).
	for i, tr := range snap.Recent {
		if want := uint64(50 - i); tr.ID != want {
			t.Fatalf("Recent[%d].ID = %d, want %d", i, tr.ID, want)
		}
	}
}

func TestFlightRecorderStraddleRing(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{K: 8})
	for i := 0; i < 30; i++ {
		fileTrace(f, time.Microsecond, i%3 == 0) // 10 straddlers
	}
	snap := f.Snapshot()
	if snap.Straddled != 10 {
		t.Fatalf("Straddled = %d, want 10", snap.Straddled)
	}
	if len(snap.Straddling) != 8 {
		t.Fatalf("Straddling holds %d traces, want 8 (ring capacity)", len(snap.Straddling))
	}
	for i, tr := range snap.Straddling {
		if !tr.Straddle {
			t.Fatalf("Straddling[%d] is not a straddler", i)
		}
		if i > 0 && tr.ID >= snap.Straddling[i-1].ID {
			t.Fatalf("Straddling not newest-first at %d", i)
		}
	}
}

func TestFlightRecorderSlowLog(t *testing.T) {
	var buf bytes.Buffer
	f := NewFlightRecorder(FlightOptions{
		K:             8,
		SlowThreshold: time.Millisecond,
		Logger:        slog.New(slog.NewTextHandler(&buf, nil)),
	})
	fileTrace(f, 100*time.Microsecond, false) // fast: not logged
	fileTrace(f, 5*time.Millisecond, false)   // slow: logged
	snap := f.Snapshot()
	if snap.SlowLogged != 1 {
		t.Fatalf("SlowLogged = %d, want 1", snap.SlowLogged)
	}
	out := buf.String()
	if !strings.Contains(out, "slow query") || !strings.Contains(out, "trace_id=2") {
		t.Fatalf("slow log missing expected fields:\n%s", out)
	}
	if strings.Count(out, "slow query") != 1 {
		t.Fatalf("want exactly one slow-query line:\n%s", out)
	}
}

func TestFlightRecorderDisabled(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{K: 8})
	f.SetEnabled(false)
	if f.Enabled() {
		t.Fatal("Enabled after SetEnabled(false)")
	}
	fileTrace(f, time.Microsecond, true)
	snap := f.Snapshot()
	if snap.Traced != 0 || len(snap.Recent) != 0 || len(snap.Straddling) != 0 {
		t.Fatalf("disabled recorder retained traces: %+v", snap)
	}
	// FinishTrace(nil) must be a no-op, not a panic.
	f.SetEnabled(true)
	f.FinishTrace(nil)
}

// TestFlightRecorderKeepsKExactly checks that each category retains
// exactly K traces, K not a power of two included.
func TestFlightRecorderKeepsKExactly(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{K: 5})
	for i := 1; i <= 20; i++ {
		fileTrace(f, time.Duration(i)*time.Microsecond, true)
	}
	snap := f.Snapshot()
	if snap.K != 5 {
		t.Fatalf("K = %d, want 5", snap.K)
	}
	if len(snap.Slowest) != 5 || len(snap.Recent) != 5 || len(snap.Straddling) != 5 {
		t.Fatalf("retained %d slowest, %d recent, %d straddling; want 5 each",
			len(snap.Slowest), len(snap.Recent), len(snap.Straddling))
	}
	if f := NewFlightRecorder(FlightOptions{}); f.Snapshot().K != DefaultTraceK {
		t.Fatalf("default K = %d, want %d", f.Snapshot().K, DefaultTraceK)
	}
}

func TestRegistryTraceSinkGating(t *testing.T) {
	r := NewRegistry()
	if r.TraceEnabled() {
		t.Fatal("TraceEnabled with no flight recorder attached")
	}
	if r.StartTrace() != nil {
		t.Fatal("StartTrace with no recorder should return nil")
	}
	r.FinishTrace(nil) // must not panic

	f := NewFlightRecorder(FlightOptions{K: 8})
	r.AttachFlightRecorder(f)
	if !r.TraceEnabled() {
		t.Fatal("TraceEnabled false with enabled recorder attached")
	}
	if r.Flight() != f {
		t.Fatal("Flight() did not return the attached recorder")
	}

	// Either switch kills tracing without detaching.
	f.SetEnabled(false)
	if r.TraceEnabled() {
		t.Fatal("TraceEnabled with recorder disabled")
	}
	f.SetEnabled(true)
	r.SetEnabled(false)
	if r.TraceEnabled() {
		t.Fatal("TraceEnabled with registry disabled")
	}
	r.SetEnabled(true)

	tr := r.StartTrace()
	if tr == nil {
		t.Fatal("StartTrace returned nil with recorder attached")
	}
	tr.Latency = time.Millisecond
	r.FinishTrace(tr)
	if got := f.Snapshot().Traced; got != 1 {
		t.Fatalf("Traced = %d after registry FinishTrace, want 1", got)
	}

	r.AttachFlightRecorder(nil)
	if r.TraceEnabled() {
		t.Fatal("TraceEnabled after detaching recorder")
	}
}

func TestFlightSnapshotJSONShape(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{K: 8})
	tr := f.StartTrace()
	tr.Kind = "score"
	tr.Backend = "tree"
	tr.Latency = 3 * time.Millisecond
	tr.Straddle = true
	tr.AddStage(TraceStage{Name: "tree/refine", Nodes: 7, Depth: 4})
	f.FinishTrace(tr)

	raw, err := json.Marshal(f.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"enabled", "k", "traced", "straddled", "slow_logged", "slowest", "recent", "straddling"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("snapshot JSON missing %q:\n%s", key, raw)
		}
	}
	slowest := decoded["slowest"].([]any)
	if len(slowest) != 1 {
		t.Fatalf("slowest has %d entries, want 1", len(slowest))
	}
	first := slowest[0].(map[string]any)
	stages := first["stages"].([]any)
	if len(stages) != 1 || stages[0].(map[string]any)["name"] != "tree/refine" {
		t.Fatalf("per-stage breakdown missing from trace JSON:\n%s", raw)
	}
}

// TestTraceJSONNonFiniteBounds pins the encoding of certified bounds
// that reach ±Inf (a query provably above threshold has no finite upper
// bound): encoding/json rejects non-finite numbers, so they marshal as
// strings instead of failing the whole /debug/queries response.
func TestTraceJSONNonFiniteBounds(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{K: 8})
	tr := f.StartTrace()
	tr.Kind = "score"
	tr.Lower = 0.004
	tr.Upper = math.Inf(1)
	tr.Margin = math.Inf(1)
	tr.Estimate = math.Inf(1)
	tr.AddStage(TraceStage{Name: "tree/refine", Upper: math.Inf(1)})
	f.FinishTrace(tr)

	raw, err := json.Marshal(f.Snapshot())
	if err != nil {
		t.Fatalf("snapshot with +Inf bounds failed to marshal: %v", err)
	}
	var decoded FlightSnapshot
	if err := json.Unmarshal(raw, &decoded); err == nil {
		t.Fatal("want round-trip to fail on the string sentinel, proving it is a string")
	}
	var loose map[string]any
	if err := json.Unmarshal(raw, &loose); err != nil {
		t.Fatal(err)
	}
	first := loose["recent"].([]any)[0].(map[string]any)
	if first["upper"] != "+Inf" || first["lower"].(float64) != 0.004 {
		t.Fatalf("non-finite encoding wrong: upper=%v lower=%v", first["upper"], first["lower"])
	}
	stage := first["stages"].([]any)[0].(map[string]any)
	if stage["upper"] != "+Inf" {
		t.Fatalf("stage upper = %v, want \"+Inf\"", stage["upper"])
	}
	if _, present := first["threshold"]; present {
		t.Fatal("zero threshold should stay omitted")
	}
}

// TestFlightRecorderConcurrent hammers every insert path and Snapshot at
// once; run under -race this is the recorder's data-race certificate.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{K: 16})
	const (
		writers   = 8
		perWriter = 500
	)
	var wg sync.WaitGroup
	wg.Add(writers + 2)
	for w := 0; w < writers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				fileTrace(f, time.Duration(w*perWriter+i)*time.Nanosecond, i%7 == 0)
			}
		}()
	}
	go func() { // concurrent readers
		defer wg.Done()
		for i := 0; i < 200; i++ {
			snap := f.Snapshot()
			if len(snap.Slowest) > snap.K || len(snap.Recent) > snap.K {
				t.Errorf("snapshot overflows K: %d slowest, %d recent", len(snap.Slowest), len(snap.Recent))
				return
			}
		}
	}()
	go func() { // concurrent enable/disable flips
		defer wg.Done()
		for i := 0; i < 100; i++ {
			f.SetEnabled(i%2 == 0)
		}
	}()
	wg.Wait()
	// The flipper may have finished (disabled) before any writer ran, so a
	// zero count is legal; file one guaranteed trace to prove the recorder
	// still works after the hammering.
	f.SetEnabled(true)
	fileTrace(f, time.Millisecond, false)
	snap := f.Snapshot()
	if snap.Traced == 0 || snap.Traced > writers*perWriter+1 {
		t.Fatalf("Traced = %d, want in (0, %d]", snap.Traced, writers*perWriter+1)
	}
}
