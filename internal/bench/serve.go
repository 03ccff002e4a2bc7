package bench

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"tkdc/internal/core"
	"tkdc/internal/dataset"
	"tkdc/internal/server"
	"tkdc/internal/telemetry"
)

// serveRowsPerRequest is how many rows each benchmark /classify request
// carries: an interactive-client batch.
const serveRowsPerRequest = 32

// serveMeasureTime is the sustained-load window per table row: long
// enough for thousands of requests at every concurrency.
const serveMeasureTime = 700 * time.Millisecond

// Serve measures /classify under concurrent traffic over real HTTP:
// sustained row throughput and request latency at rising client
// concurrency, each request answered inline on its own goroutine.
func Serve(opts Options) ([]Table, error) {
	opts = opts.normalized()
	n := opts.scaled(100_000, 2000)
	data := dataset.Gauss(n, 2, opts.Seed)

	clf, err := core.Train(data, opts.config())
	if err != nil {
		return nil, err
	}

	// Request bodies cycle through query batches drawn from the data
	// distribution.
	queries := dataset.Gauss(4096, 2, opts.Seed+1)
	bodies := make([][]byte, 0, len(queries)/serveRowsPerRequest)
	for i := 0; i+serveRowsPerRequest <= len(queries); i += serveRowsPerRequest {
		var b strings.Builder
		for _, q := range queries[i : i+serveRowsPerRequest] {
			fmt.Fprintf(&b, "%.6f,%.6f\n", q[0], q[1])
		}
		bodies = append(bodies, []byte(b.String()))
	}

	t := Table{
		Title:   "Serving path: sustained /classify throughput (CSV rows over HTTP)",
		Columns: []string{"Conc", "Rows/s", "Req/s", "p50 us", "p99 us"},
	}

	for _, conc := range []int{1, 8, 32} {
		ts := httptest.NewServer(server.New(clf, server.Options{Registry: telemetry.NewRegistry()}))
		rows, reqs, lat, err := measureServe(ts.URL, conc, bodies)
		ts.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: serve conc=%d: %w", conc, err)
		}
		t.AddRow(fmt.Sprintf("%d", conc),
			fmtRate(rows), fmtRate(reqs),
			fmtMicros(lat.p50), fmtMicros(lat.p99))
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("each request posts %d CSV rows; p50/p99 are request latencies", serveRowsPerRequest))
	t.Fprint(opts.Out)
	return []Table{t}, nil
}

// measureServe drives conc goroutines posting bodies at url/classify for
// at least serveMeasureTime, returning aggregate row and request
// throughput plus request latency quantiles.
func measureServe(url string, conc int, bodies [][]byte) (rowsPerSec, reqPerSec float64, lat latencyStats, err error) {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conc * 2,
		MaxIdleConnsPerHost: conc * 2,
	}}
	defer client.CloseIdleConnections()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		allLat   []float64
		firstErr error
	)
	stop := make(chan struct{})
	time.AfterFunc(serveMeasureTime, func() { close(stop) })
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lats := make([]float64, 0, 1024)
			for i := w; ; i++ {
				select {
				case <-stop:
					mu.Lock()
					allLat = append(allLat, lats...)
					mu.Unlock()
					return
				default:
				}
				body := bodies[i%len(bodies)]
				qs := time.Now()
				resp, perr := client.Post(url+"/classify", "text/csv", bytes.NewReader(body))
				if perr == nil {
					// Drain so the keep-alive connection is reusable.
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						perr = fmt.Errorf("status %d", resp.StatusCode)
					}
				}
				if perr != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = perr
					}
					allLat = append(allLat, lats...)
					mu.Unlock()
					return
				}
				lats = append(lats, time.Since(qs).Seconds())
			}
		}(w)
	}
	wg.Wait()
	total := time.Since(start).Seconds()
	if firstErr != nil {
		return 0, 0, lat, firstErr
	}
	if len(allLat) == 0 {
		return 0, 0, lat, fmt.Errorf("no requests completed")
	}
	sort.Float64s(allLat)
	reqPerSec = float64(len(allLat)) / total
	rowsPerSec = reqPerSec * serveRowsPerRequest
	lat = latencyStats{
		p50: allLat[len(allLat)/2],
		p99: allLat[len(allLat)*99/100],
		qps: reqPerSec,
	}
	return rowsPerSec, reqPerSec, lat, nil
}
