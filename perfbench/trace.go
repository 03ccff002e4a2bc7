package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced run. Spans of one request or
// refresh cycle share group. A replayed span times a repeat of a layer
// call on a copy, made right after the real one; it is the child of the
// span whose work it stands for but does not lie inside its interval.
type span struct {
	id, parent, group int64
	name              string
	start, end        time.Time
	replayed          bool
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps the traced run's spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
	ids   atomic.Int64
}

// newIDs reserves k consecutive span ids and returns the first.
func (t *tracer) newIDs(k int) int64 { return t.ids.Add(int64(k)) - int64(k) + 1 }

// newID reserves one span id; an untraced run (nil tracer) gets 0.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.newIDs(1)
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed records a span around f.
func (t *tracer) timed(id, parent, group int64, name string, replayed bool, f func()) {
	start := time.Now()
	f()
	t.record(span{id: id, parent: parent, group: group, name: name, start: start, end: time.Now(), replayed: replayed})
}

// selfTimes maps every span id to its self time: the span's duration
// minus the durations of its children. Replayed children count by
// duration, since they repeat work the parent did.
func (t *tracer) selfTimes() map[int64]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make(map[int64]time.Duration, len(t.spans))
	for _, s := range t.spans {
		self[s.id] += s.dur()
		if s.parent != 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// durationsOf lists the durations of every span with the given name.
func (t *tracer) durationsOf(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfOf lists the self times of every span with the given name.
func (t *tracer) selfOf(name string) []time.Duration {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, self[s.id])
		}
	}
	return out
}

// write stores the spans as CSV, times relative to the first span.
func (t *tracer) write(path string) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	var t0 time.Time
	for i, s := range t.spans {
		if i == 0 || s.start.Before(t0) {
			t0 = s.start
		}
	}
	fmt.Fprintln(w, "id,parent,group,name,start_ns,end_ns,replayed")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%t\n", s.id, s.parent, s.group, s.name,
			s.start.Sub(t0).Nanoseconds(), s.end.Sub(t0).Nanoseconds(), s.replayed)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedHandler is the benchmark's wrapper around the server's
// ServeHTTP. A request tagged with spanHeader=id gets a handler span
// with id+1 and parent id; untagged requests pass straight through.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	h.tr.timed(id+1, id, id, "server"+r.URL.Path, false, func() { h.next.ServeHTTP(w, r) })
}
