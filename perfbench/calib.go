package main

import (
	"fmt"
	"math"
	"time"
)

// The host this benchmark is pinned on changes speed by up to 2× over
// minutes: other tenants contend for its shared last-level cache and
// memory, so the same request takes longer. Thread CPU time follows wall
// time, so measuring CPU time cancels nothing. A fixed reference
// computation whose working set overflows the per-core L2, timed every
// calInterval between the workload's requests, slows down with the
// host. Each run divides its end-to-end times (and multiplies its rates)
// by the run's host factor: the median reference time over refNominal.
// The reference is this package's own code, so no change to the program
// can move it, and the loops pause while it runs, so the program's own
// load does not slow it.

// refNominal is the reference's duration the end-to-end numbers are
// scaled to: they read as they would on a host that runs the reference
// in exactly this time.
const refNominal = 2 * time.Millisecond

// refIters sizes one reference run to a few milliseconds.
const refIters = 1 << 15

// refTableLen is the reference's working set: 16 MiB of uint64s, far
// past the 2 MiB L2 of the pinned host, so its random updates land in
// the shared L3 the way the program's index and buffers do.
const refTableLen = 1 << 21

// calInterval is how often the workload loops pause for a reference run.
const calInterval = 50 * time.Millisecond

// calibration collects a run's reference timings.
type calibration struct {
	table   []uint64
	samples []time.Duration
	last    time.Time
	sink    float64
}

func newCalibration() *calibration {
	c := &calibration{table: make([]uint64, refTableLen)}
	for i := range c.table {
		c.table[i] = uint64(i) // fault every page in before the first sample
	}
	return c
}

// sample times one reference run on the calling goroutine.
func (c *calibration) sample() {
	start := time.Now()
	c.sink += refWork(c.table, uint64(len(c.samples))+1)
	c.last = time.Now()
	c.samples = append(c.samples, c.last.Sub(start))
}

// due reports whether calInterval has passed since the last sample.
func (c *calibration) due() bool { return time.Since(c.last) >= calInterval }

// refWork mixes integer hashing, scattered table updates and float math.
func refWork(t []uint64, x uint64) float64 {
	var acc float64
	mask := uint64(len(t) - 1)
	for range refIters {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[x&mask] += x
		acc += math.Exp(-float64(t[(x>>20)&mask]&1023) / 256)
	}
	return acc
}

// factor is the run's host slowdown: the median reference time over
// refNominal (1 when nothing was sampled).
func (c *calibration) factor() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return median(durations(c.samples, seconds)) / refNominal.Seconds()
}

// calibrate takes a reference sample when one is due and returns the
// time it took, which the caller leaves out of its own timings.
func (e *env) calibrate() time.Duration {
	if !e.cal.due() {
		return 0
	}
	start := time.Now()
	e.cal.sample()
	return time.Since(start)
}

// addEndToEnd reports a run's set-up time, median request latency and
// row rate, scaled by the run's host factor, with the raw values in the
// notes.
func (e *env) addEndToEnd(setup float64, setupNote string, lat []time.Duration, latNote string, rows float64, rowsNote string) {
	f := e.cal.factor()
	us := durations(lat, micros)
	p50, p99 := median(us), quantile(us, 0.99)
	e.rep.info("host.factor", f, "ratio", fmt.Sprintf("median of %d reference runs over %v", len(e.cal.samples), refNominal))
	e.rep.add("setup_s", setup/f, "s", fmt.Sprintf("%s; raw %.6g", setupNote, setup))
	e.rep.add("latency_p50_us", p50/f, "us", fmt.Sprintf("n=%s; raw %.6g", latNote, p50))
	e.rep.info("latency_p99_us", p99/f, "us", fmt.Sprintf("n=%s, %d beyond; raw %.6g (information only)", latNote, len(us)-int(0.99*float64(len(us))), p99))
	e.rep.add("rows_per_s", rows*f, "rows/s", fmt.Sprintf("%s; raw %.6g", rowsNote, rows))
}
