package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"tkdc/internal/core"
	"tkdc/internal/dataset"
	"tkdc/internal/points"
	"tkdc/internal/server"
	"tkdc/internal/telemetry"
)

// workload is one set of inputs the benchmark runs. Each exists to put
// a different layer on the blocking path; stresses and bypasses record
// which, so a layer metric that moves on a workload that bypasses the
// layer is a finding.
type workload struct {
	name     string
	why      string
	stresses string
	bypasses string
	sizes    func(tiny bool) sizes
	run      func(*env) error
}

// sizes fixes how much work one run does. Tiny sizes run the same code
// in seconds, for the package test.
type sizes struct {
	n       int // training rows
	reqRows int // rows per /classify request
	// requests is the length of the fixed /classify request list where
	// the request rows are drawn apart from the training rows (online
	// and the refresh reader); the bulk workloads post the training rows.
	requests int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// probes is the size of the fixed probe set the checks use.
	probes int
	// ingestRows and ingestBatch size a refresh cycle's /ingest traffic.
	ingestRows, ingestBatch int
	// replays is how often a traced run repeats each replayed build,
	// encode and load; their per-layer numbers are medians.
	replays int
}

var workloads = []*workload{
	{
		name:     "online-gauss2",
		why:      "the interactive-client case: small /classify requests against a static d=2 model, where the grid answers most rows",
		stresses: "server (net/http, parse, encode), grid, core per-query tree traversal",
		bypasses: "training after set-up, dual-tree pass, estimator, fleet",
		sizes: func(tiny bool) sizes {
			if tiny {
				return sizes{n: 2000, reqRows: 32, requests: 64, setups: 2, replays: 2}
			}
			return sizes{n: 100_000, reqRows: 32, requests: 1024, setups: 5, replays: 5}
		},
		run: func(e *env) error { return runClassify(e, onlineGauss2) },
	},
	{
		name:     "bulk-tmy3",
		why:      "the paper's outlier-detection setting at moderate d: classify the whole d=8 training set in 4096-row requests, pass after pass",
		stresses: "core dual-tree pass on the tree backend, kdtree, set-up training (bootstrap)",
		bypasses: "grid, estimator, fleet",
		sizes: func(tiny bool) sizes {
			if tiny {
				return sizes{n: 1024, reqRows: 512, setups: 2, replays: 2}
			}
			return sizes{n: 20_480, reqRows: 4096, setups: 3, replays: 5}
		},
		run: func(e *env) error { return runClassify(e, bulkTMY3) },
	},
	{
		name:     "bulk-hep27",
		why:      "the only workload where the sampled far field runs: at d=27 auto picks the sampling backend for 1024-row requests over the training set",
		stresses: "estimator (parallel per-query sweep), kdtree near phase",
		bypasses: "grid, dual-tree pass, fleet",
		sizes: func(tiny bool) sizes {
			if tiny {
				return sizes{n: 512, reqRows: 256, setups: 2, probes: 64, replays: 2}
			}
			return sizes{n: 4096, reqRows: 1024, setups: 3, probes: 256, replays: 5}
		},
		run: func(e *env) error { return runClassify(e, bulkHEP27) },
	},
	{
		name:     "refresh-gauss2",
		why:      "writes beside reads: ingest, retrain, publish and follower sync cycles behind a streaming leader while a reader posts /classify",
		stresses: "stream (ingest, Retrain, Model swap), core training and persist, fleet publisher and follower",
		bypasses: "dual-tree pass, estimator",
		sizes: func(tiny bool) sizes {
			if tiny {
				return sizes{n: 2000, reqRows: 32, requests: 64, setups: 2, probes: 128, ingestRows: 2048, ingestBatch: 256, replays: 2}
			}
			return sizes{n: 50_000, reqRows: 32, requests: 1024, setups: 5, probes: 512, ingestRows: 196 * 256, ingestBatch: 256, replays: 5}
		},
		run: runRefresh,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is the state one workload run shares with the helpers.
type env struct {
	opts  options
	rep   *report
	sizes sizes
	cal   *calibration
}

// subSeed derives an independent input seed, so training rows, query
// rows and ingest rows of one run never coincide.
func (e *env) subSeed(stream int64) int64 { return e.opts.seed*1_000_003 + stream }

// generate draws n rows of a dataset as flat storage.
func generate(name string, n, dim int, seed int64) (*points.Store, error) {
	rows, err := dataset.Generate(name, n, dim, seed)
	if err != nil {
		return nil, err
	}
	return points.FromRows(rows)
}

// poolSeed fixes the structure of the pooled datasets.
const poolSeed = 1

// sampleRows draws n distinct rows, picked by seed, from a pool of 8n
// rows generated with poolSeed. The tmy3 and hep generators draw their
// cluster structure (building types, latent loadings) from the seed
// too, which swings the work per row by up to 18% from one seed to the
// next; a fixed pool keeps one structure, as a fixed real dataset would,
// and lets the seed choose the rows.
func sampleRows(name string, n, dim int, seed int64) (*points.Store, error) {
	pool, err := dataset.Generate(name, 8*n, dim, poolSeed)
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, n)
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(pool))[:n] {
		rows[i] = pool[j]
	}
	return points.FromRows(rows)
}

// trainConfig is the model configuration tkdc -serve uses: the paper's
// defaults, the training seed, every core busy, telemetry recording into
// the serving registry.
func trainConfig(seed int64, reg *telemetry.Registry) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = runtime.GOMAXPROCS(0)
	cfg.Recorder = reg
	return cfg
}

// liveServer is a server.Server behind a real loopback listener.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startServer serves h (the server itself, or a tracing wrapper around
// it) on a fresh loopback port. The listener is bound when it returns,
// so the server is ready to accept requests.
func startServer(srv *server.Server, h http.Handler) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ls := &liveServer{
		srv:  srv,
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(ls.done)
		_ = ls.hs.Serve(ln) // always http.ErrServerClosed after close
	}()
	return ls, nil
}

// close stops the listener, drops its connections, waits for the serve
// goroutine, and flushes the batch engine.
func (ls *liveServer) close() {
	_ = ls.hs.Close() // the listener error is irrelevant at teardown
	<-ls.done
	ls.srv.Close()
}

// newClient returns a client that holds one keep-alive connection, so
// each benchmark loop owns exactly one connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// spanHeader carries a traced request's span id to the handler wrapper.
// Untraced requests do not send it.
const spanHeader = "X-Perfbench-Span"

// poster posts CSV bodies over one client, reusing its response buffer.
type poster struct {
	client *http.Client
	buf    bytes.Buffer
}

// post sends body and returns the status and the response body, which
// stays valid until the next post. span, when non-zero, tags the
// request for the tracing wrapper.
func (p *poster) post(url string, body []byte, span int64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "text/csv")
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	p.buf.Reset()
	if _, err := p.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, p.buf.Bytes(), nil
}

// request is one prepared /classify or /ingest body with the rows it
// encodes.
type request struct {
	body []byte
	flat []float64
	n    int
}

// splitRequests cuts flat rows into requests of at most per rows each,
// encoded as CSV the way a client would send them.
func splitRequests(st *points.Store, per int) []request {
	var out []request
	for lo := 0; lo < st.Len(); lo += per {
		hi := min(lo+per, st.Len())
		flat := st.Data[lo*st.Dim : hi*st.Dim]
		out = append(out, request{body: encodeCSV(flat, st.Dim), flat: flat, n: hi - lo})
	}
	return out
}

// encodeCSV writes rows with the shortest decimal that parses back to
// the same float64, so the server classifies exactly these rows.
func encodeCSV(flat []float64, dim int) []byte {
	b := make([]byte, 0, len(flat)*20)
	for i, v := range flat {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		if (i+1)%dim == 0 {
			b = append(b, '\n')
		} else {
			b = append(b, ',')
		}
	}
	return b
}

var errBadResponse = errors.New("malformed response")

// parseLabels reads the generation and the labels of a /classify
// response ({"generation":G,"labels":["HIGH","LOW",...]}) into dst.
func parseLabels(body []byte, dst []core.Label) ([]core.Label, uint64, error) {
	dst = dst[:0]
	gen, ok := jsonUint(body, `"generation":`)
	if !ok {
		return dst, 0, errBadResponse
	}
	i := bytes.Index(body, []byte(`"labels":[`))
	if i < 0 {
		return dst, 0, errBadResponse
	}
	rest := body[i+len(`"labels":[`):]
	for len(rest) > 0 && rest[0] != ']' {
		switch {
		case bytes.HasPrefix(rest, []byte(`"HIGH"`)):
			dst = append(dst, core.High)
			rest = rest[len(`"HIGH"`):]
		case bytes.HasPrefix(rest, []byte(`"LOW"`)):
			dst = append(dst, core.Low)
			rest = rest[len(`"LOW"`):]
		default:
			return dst, 0, errBadResponse
		}
		if len(rest) > 0 && rest[0] == ',' {
			rest = rest[1:]
		}
	}
	if len(rest) == 0 {
		return dst, 0, errBadResponse
	}
	return dst, gen, nil
}

// jsonUint reads the unsigned integer that follows key in body.
func jsonUint(body []byte, key string) (uint64, bool) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	v, err := strconv.ParseUint(string(rest[:j]), 10, 64)
	return v, err == nil
}

// addHeap reports the live heap after two forced collections (the
// second empties what sync.Pool victim caches kept alive through the
// first). The host reference's table is released first: it is the
// benchmark's memory, not the program's.
func (e *env) addHeap() {
	e.cal.table = nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.rep.add("heap_mb", float64(ms.HeapAlloc)/1e6, "MB", "live heap after forced GC at run end")
}
