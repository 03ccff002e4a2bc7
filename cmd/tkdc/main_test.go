package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"tkdc"
)

// TestHTTPServerTimeouts pins the serving-mode hardening: every tkdc
// server must carry header/read/idle deadlines so a slow or stalled
// client cannot pin a connection forever, while WriteTimeout stays zero
// so the streaming pprof endpoints (profile, trace) are not cut off.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", http.NewServeMux())
	if srv.ReadHeaderTimeout <= 0 {
		t.Fatal("ReadHeaderTimeout unset: slowloris protection missing")
	}
	if srv.ReadTimeout <= 0 {
		t.Fatal("ReadTimeout unset: a stalled body upload pins a connection")
	}
	if srv.IdleTimeout <= 0 {
		t.Fatal("IdleTimeout unset: idle keep-alive connections never reaped")
	}
	if srv.WriteTimeout != 0 {
		t.Fatal("WriteTimeout set: it would cut off streaming pprof profiles")
	}
	if srv.Addr != ":0" || srv.Handler == nil {
		t.Fatal("newHTTPServer dropped the address or handler")
	}
}

// TestServeUntilDrainsInFlight pins graceful shutdown: cancelling the
// context while a request is running must not return before that
// request has finished, and its client must get the full response.
func TestServeUntilDrainsInFlight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	}))
	shuttingDown := make(chan struct{})
	srv.RegisterOnShutdown(func() { close(shuttingDown) })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	returned := make(chan error, 1)
	go func() { returned <- serveUntil(ctx, srv, ln, time.Minute) }()

	type reply struct {
		status int
		body   string
		err    error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String())
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		replied <- reply{status: resp.StatusCode, body: string(body), err: err}
	}()

	<-entered
	cancel()
	<-shuttingDown
	// Serve has returned (or is about to) by now; serveUntil must still
	// be waiting on the blocked request.
	select {
	case err := <-returned:
		close(release)
		t.Fatalf("serveUntil returned %v while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)

	r := <-replied
	if r.err != nil || r.status != http.StatusOK || r.body != "done" {
		t.Fatalf("in-flight request: status %d body %q err %v, want 200 \"done\"", r.status, r.body, r.err)
	}
	if err := <-returned; err != nil {
		t.Fatalf("serveUntil = %v after a clean drain, want nil", err)
	}
}

// TestValidateFlags pins the mode-combination contract: incoherent flag
// sets die with a clear error before any CSV is read or socket opened,
// and every error names the offending flags.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name                       string
		train, load, follow, serve string
		stream                     bool
		wantErr                    []string // substrings; nil = valid
	}{
		{name: "train batch", train: "d.csv"},
		{name: "load serve", load: "m.tkdc", serve: ":8080"},
		{name: "train stream serve", train: "d.csv", serve: ":8080", stream: true},
		{name: "follow serve", follow: "http://leader:8080", serve: ":8081"},

		{name: "neither train nor load", wantErr: []string{"-train", "-load"}},
		{name: "both train and load", train: "d.csv", load: "m.tkdc", wantErr: []string{"-train", "-load"}},
		{name: "follow plus train", follow: "http://l", serve: ":1", train: "d.csv", wantErr: []string{"-follow", "-train"}},
		{name: "follow plus load", follow: "http://l", serve: ":1", load: "m.tkdc", wantErr: []string{"-follow", "-load"}},
		{name: "follow plus stream", follow: "http://l", serve: ":1", stream: true, wantErr: []string{"-follow", "-stream"}},
		{name: "follow plus train and stream", follow: "http://l", serve: ":1", train: "d.csv", stream: true,
			wantErr: []string{"-follow", "-train", "-stream"}},
		{name: "follow without serve", follow: "http://l", wantErr: []string{"-follow", "-serve"}},
		{name: "stream without serve", train: "d.csv", stream: true, wantErr: []string{"-stream", "-serve"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.train, tc.load, tc.follow, tc.serve, tc.stream)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("valid combination rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("incoherent combination accepted")
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// TestWriteResultsMatchesScore pins batch mode's output: the labels and
// -density lines that come from the parallel batch APIs equal per-row
// Score output at one worker and at two, and a malformed row fails the
// batch with its index in the error.
func TestWriteResultsMatchesScore(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, 800)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	// Training rows plus a spread of wider queries, so both labels occur.
	queries := append([][]float64{}, rows...)
	for i := 0; i < 200; i++ {
		queries = append(queries, []float64{4 * rng.NormFloat64(), 4 * rng.NormFloat64()})
	}
	for _, workers := range []int{1, 2} {
		cfg := tkdc.DefaultConfig()
		cfg.Workers = workers
		clf, err := tkdc.Train(rows, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var labels, density strings.Builder
		for _, q := range queries {
			r, err := clf.Score(q)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(&labels, r.Label)
			fmt.Fprintf(&density, "%s,%g,%g\n", r.Label, r.Lower, r.Upper)
		}
		if !strings.Contains(labels.String(), tkdc.Low.String()) || !strings.Contains(labels.String(), tkdc.High.String()) {
			t.Fatal("queries do not exercise both labels")
		}
		for _, c := range []struct {
			density bool
			want    string
		}{{false, labels.String()}, {true, density.String()}} {
			var got strings.Builder
			if err := writeResults(&got, clf, queries, c.density); err != nil {
				t.Fatal(err)
			}
			if got.String() != c.want {
				t.Fatalf("workers=%d density=%v: batch output differs from per-row Score", workers, c.density)
			}
		}

		bad := append([][]float64{}, queries[:10]...)
		bad[7] = []float64{1, math.NaN()}
		wide := [][]float64{{1, 2, 3}}
		for _, density := range []bool{false, true} {
			if err := writeResults(io.Discard, clf, bad, density); err == nil || !strings.Contains(err.Error(), "query 7") {
				t.Fatalf("density=%v: NaN row error = %v, want it to name query 7", density, err)
			}
			if err := writeResults(io.Discard, clf, wide, density); err == nil || !strings.Contains(err.Error(), "query 0") {
				t.Fatalf("density=%v: wide row error = %v, want it to name query 0", density, err)
			}
		}
	}
}
