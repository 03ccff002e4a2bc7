package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"tkdc/internal/baseline"
	"tkdc/internal/core"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
	"tkdc/internal/server"
	"tkdc/internal/stream"
	"tkdc/internal/telemetry"
)

// classifySpec is a static-model workload: one closed-loop connection
// posting a fixed request list to /classify, pass after pass.
type classifySpec struct {
	dataset string
	dim     int
	// bulk posts the training rows themselves, as the paper's §4 runs
	// do, drawn by seed from a fixed pool (see sampleRows). Otherwise the
	// training rows come from the seed and the request rows are drawn
	// apart from them.
	bulk     bool
	newCheck func(e *env, clf *core.Classifier, reqs []request) (checker, error)
}

var (
	onlineGauss2 = classifySpec{dataset: "gauss", dim: 2, newCheck: newExactCheck}
	bulkTMY3     = classifySpec{dataset: "tmy3", dim: 8, bulk: true, newCheck: newScoreBandCheck}
	bulkHEP27    = classifySpec{dataset: "hep", dim: 27, bulk: true, newCheck: newKDECheck}
)

// checker verifies one response's labels for request req, returning how
// many rows it checked and how many failed.
type checker interface {
	check(req int, got []core.Label) (checked, failed int64)
	finish(rep *report)
}

// served is one set-up's model and server.
type served struct {
	clf *core.Classifier
	ls  *liveServer
}

func (s *served) close() { s.ls.close() }

// setupClassify trains the model and starts its server, sizes.setups
// times; every set-up but the last is torn down again. It returns the
// last set-up, every set-up's time and every model's training trace.
func (e *env) setupClassify(train *points.Store, tr *tracer) (*served, []float64, []core.TrainStats, error) {
	var times []float64
	var stats []core.TrainStats
	var last *served
	for i := range e.sizes.setups {
		if last != nil {
			last.close()
		}
		e.cal.sample()
		start := time.Now()
		reg := telemetry.NewRegistry()
		clf, err := core.TrainStore(train, trainConfig(e.opts.seed, reg))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up %d: train: %w", i, err)
		}
		srv := server.New(clf, server.Options{Registry: reg})
		ls, err := startServer(srv, handlerFor(srv, tr))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, seconds(time.Since(start)))
		stats = append(stats, clf.TrainStats())
		last = &served{clf: clf, ls: ls}
	}
	e.cal.sample()
	return last, times, stats, nil
}

// handlerFor is the server itself in an untraced run and the tracing
// wrapper around it in a traced one.
func handlerFor(srv *server.Server, tr *tracer) http.Handler {
	if tr == nil {
		return srv
	}
	return tracedHandler{next: srv, tr: tr}
}

// classifyPhase is what one measured phase of a classify loop saw.
type classifyPhase struct {
	lat      []time.Duration // per request
	passes   []time.Duration // per whole pass
	work     []core.Counters // served-model work per whole pass
	passRows int64
	mem      [2]runtime.MemStats // at phase start and end
}

// p50us is the median request latency in microseconds.
func (p *classifyPhase) p50us() float64 { return median(durations(p.lat, micros)) }

// rowsPerSec is the median over whole passes of rows per second.
func (p *classifyPhase) rowsPerSec() float64 {
	rates := make([]float64, len(p.passes))
	for i, d := range p.passes {
		rates[i] = float64(p.passRows) / d.Seconds()
	}
	return median(rates)
}

// totalWork sums the served model's work over the phase's whole passes.
func (p *classifyPhase) totalWork() core.Counters {
	var t core.Counters
	for _, w := range p.work {
		t = addCounters(t, w)
	}
	return t
}

// classifyLoop drives one closed-loop connection through a fixed
// request list.
type classifyLoop struct {
	e     *env
	p     *poster
	url   string
	reqs  []request
	model *core.Classifier // the served model, for its work counters
	chk   checker
	calls *opCount
	rows  *opCount
	// labels is the parse buffer for response labels.
	labels []core.Label
}

// run posts whole passes of the request list until d has elapsed. With
// a tracer it records a client span per request and replays the
// request's classification on replay right after the response.
func (l *classifyLoop) run(d time.Duration, tr *tracer, replay *stream.Model) (*classifyPhase, error) {
	ph := &classifyPhase{}
	for _, r := range l.reqs {
		ph.passRows += int64(r.n)
	}
	runtime.ReadMemStats(&ph.mem[0])
	deadline := time.Now().Add(d)
	for {
		before, passStart := l.model.Stats(), time.Now()
		var paused time.Duration
		for k, r := range l.reqs {
			paused += l.e.calibrate()
			lat, err := l.one(k, r, tr, replay)
			if err != nil {
				return nil, err
			}
			ph.lat = append(ph.lat, lat)
		}
		ph.passes = append(ph.passes, time.Since(passStart)-paused)
		ph.work = append(ph.work, subCounters(l.model.Stats(), before))
		if time.Now().After(deadline) {
			break
		}
	}
	runtime.ReadMemStats(&ph.mem[1])
	return ph, nil
}

// one posts request k, checks the answer, and returns its latency.
func (l *classifyLoop) one(k int, r request, tr *tracer, replay *stream.Model) (time.Duration, error) {
	var id int64
	if tr != nil {
		id = tr.newIDs(3) // client span, handler span, replayed classify
	}
	l.calls.attempted++
	start := time.Now()
	status, body, err := l.p.post(l.url+"/classify", r.body, id)
	lat := time.Since(start)
	if tr != nil {
		tr.record(span{id: id, group: id, name: "client/classify", start: start, end: start.Add(lat)})
		var rerr error
		tr.timed(id+2, id+1, id, "stream.Model.ClassifyFlat", true, func() { _, _, rerr = replay.ClassifyFlat(r.flat, r.n) })
		if rerr != nil {
			return 0, fmt.Errorf("replay classify: %w", rerr)
		}
	}
	if err != nil || status != http.StatusOK {
		l.calls.failed++
		l.e.rep.printf("classify request %d: status %d, error %v", k, status, err)
		return lat, nil
	}
	l.labels, _, err = parseLabels(body, l.labels)
	if err != nil || len(l.labels) != r.n {
		l.calls.failed++
		l.e.rep.printf("classify request %d: %d labels for %d rows (%v)", k, len(l.labels), r.n, err)
		return lat, nil
	}
	checked, failed := l.chk.check(k, l.labels)
	l.rows.attempted += checked
	l.rows.failed += failed
	return lat, nil
}

// runClassify runs a static-model workload: set-up, a warm-up pass, and
// a measured phase; with tracing, a second, traced phase follows.
func runClassify(e *env, spec classifySpec) error {
	s := e.sizes
	var train, queries *points.Store
	var err error
	if spec.bulk {
		train, err = sampleRows(spec.dataset, s.n, spec.dim, e.subSeed(1))
		queries = train
	} else {
		train, err = generate(spec.dataset, s.n, spec.dim, e.subSeed(1))
		if err == nil {
			queries, err = generate(spec.dataset, s.requests*s.reqRows, spec.dim, e.subSeed(2))
		}
	}
	if err != nil {
		return err
	}
	reqs := splitRequests(queries, s.reqRows)

	var tr *tracer
	if e.opts.trace {
		tr = &tracer{}
	}
	srv, setupTimes, trainStats, err := e.setupClassify(train, tr)
	if err != nil {
		return err
	}
	defer srv.close()
	e.rep.printf("model: n=%d d=%d backend=%s threshold=%.6g grid=%t; %d requests of %d rows per pass",
		srv.clf.N(), srv.clf.Dim(), srv.clf.Backend(), srv.clf.Threshold(), srv.clf.TrainStats().GridEnabled, len(reqs), s.reqRows)

	chk, err := spec.newCheck(e, srv.clf, reqs)
	if err != nil {
		return err
	}
	p := &poster{client: newClient()}
	defer closeClient(p.client)
	loop := &classifyLoop{e: e, p: p, url: srv.ls.url, reqs: reqs, model: srv.clf, chk: chk,
		calls: e.rep.op("classify_requests"), rows: e.rep.op("checked_rows")}

	// One untimed pass lets pools, caches and connections warm up.
	if _, err := loop.run(0, nil, nil); err != nil {
		return err
	}
	untraced, err := loop.run(e.opts.seconds, nil, nil)
	if err != nil {
		return err
	}
	e.checkWorkRepeats("untraced", untraced.work)

	if !e.opts.trace {
		e.addEndToEnd(median(setupTimes), fmt.Sprintf("median of %d set-ups (train + start server)", len(setupTimes)),
			untraced.lat, fmt.Sprintf("%d requests", len(untraced.lat)),
			untraced.rowsPerSec(), fmt.Sprintf("median over %d passes of %d rows", len(untraced.passes), untraced.passRows))
		// The latency sample grows with throughput; drop it so heap_mb
		// holds the program's memory and the fixed inputs only.
		untraced.lat = nil
		e.addHeap()
		chk.finish(e.rep)
		return nil
	}

	// The traced phase replays each request on a copy loaded from the
	// served model's own snapshot, so the served model's counters and
	// state see only the HTTP traffic.
	cp, err := copyOf(srv.clf)
	if err != nil {
		return err
	}
	traced, err := loop.run(e.opts.seconds, tr, stream.NewModel(cp))
	if err != nil {
		return err
	}
	e.checkWorkRepeats("traced", traced.work)
	if untraced.work[0] != traced.work[0] {
		e.rep.fail("work per pass differs between untraced %+v and traced %+v phases", untraced.work[0], traced.work[0])
	}
	chk.finish(e.rep)

	l := newLayerValues()
	reqNote := fmt.Sprintf("p50 over %d traced requests", len(traced.lat))
	l.set("server.handler_us", median(durations(tr.durationsOf("server/classify"), micros)), "%s", reqNote)
	l.set("server.self_us", median(durations(tr.selfOf("server/classify"), micros)), "%s", reqNote)
	l.set("server.transport_us", median(durations(tr.selfOf("client/classify"), micros)), "%s", reqNote)
	l.set("stream.classify_us", median(durations(tr.durationsOf("stream.Model.ClassifyFlat"), micros)), "%s", reqNote)
	l.setRuntime(untraced.mem[0], untraced.mem[1], int64(len(untraced.lat)))
	l.setTraining(trainStats, "set-up models")
	l.setWork(untraced.totalWork(), fmt.Sprintf("%d whole passes", len(untraced.passes)))
	share, err := dualTreeGroupShare(cp, reqs)
	if err != nil {
		return err
	}
	if share >= 0 {
		l.set("core.dualtree_group_share", share, "flight-recorder dualtree stages over one pass on the copy")
	}
	if err := l.replayBuilds(srv.clf, s.replays); err != nil {
		return err
	}
	l.set("host.factor", e.cal.factor(), "median of %d reference runs over %v", len(e.cal.samples), refNominal)
	l.setOverhead(untraced.p50us(), traced.p50us(), untraced.rowsPerSec(), traced.rowsPerSec())
	l.emit(e.rep)
	return tr.write(e.opts.spans)
}

// checkWorkRepeats fails the run unless every whole pass did exactly the
// same work: the request list is fixed and every backend is
// deterministic per row, so the counts repeat exactly for a seed.
func (e *env) checkWorkRepeats(phase string, work []core.Counters) {
	for i, w := range work {
		if w != work[0] {
			e.rep.fail("%s pass %d did work %+v, pass 0 did %+v", phase, i, w, work[0])
			return
		}
	}
}

// copyOf loads a classifier from the model's own snapshot bytes and
// wires it the way the served model is wired.
func copyOf(clf *core.Classifier) (*core.Classifier, error) {
	snap, _, err := clf.EncodeSnapshot()
	if err != nil {
		return nil, fmt.Errorf("copy: encode: %w", err)
	}
	cp, err := core.Load(bytes.NewReader(snap))
	if err != nil {
		return nil, fmt.Errorf("copy: load: %w", err)
	}
	cp.SetWorkers(runtime.GOMAXPROCS(0))
	cp.SetRecorder(telemetry.NewRegistry())
	return cp, nil
}

// dualTreeGroupShare replays one pass on the copy with the flight
// recorder attached and returns the share of dual-tree rows certified
// by group rather than by per-row fallback; -1 when no request took the
// dual-tree pass.
func dualTreeGroupShare(cp *core.Classifier, reqs []request) (float64, error) {
	reg := telemetry.NewRegistry()
	fr := telemetry.NewFlightRecorder(telemetry.FlightOptions{K: 8})
	reg.AttachFlightRecorder(fr)
	cp.SetRecorder(reg)
	defer cp.SetRecorder(telemetry.NewRegistry())
	m := stream.NewModel(cp)
	var group, fallback int64
	var seen uint64
	for _, r := range reqs {
		if _, _, err := m.ClassifyFlat(r.flat, r.n); err != nil {
			return 0, fmt.Errorf("group-share pass: %w", err)
		}
		for _, t := range fr.Snapshot().Recent {
			if t.ID <= seen {
				break
			}
			if t.Kind != "dualtree" {
				continue
			}
			for _, st := range t.Stages {
				switch st.Name {
				case "groups/certified":
					group += st.Queries
				case "groups/fallback":
					fallback += st.Queries
				}
			}
		}
		if snap := fr.Snapshot(); len(snap.Recent) > 0 {
			seen = snap.Recent[0].ID
		}
	}
	if group+fallback == 0 {
		return -1, nil
	}
	return float64(group) / float64(group+fallback), nil
}

func addCounters(a, b core.Counters) core.Counters {
	return core.Counters{
		Queries:        a.Queries + b.Queries,
		GridHits:       a.GridHits + b.GridHits,
		PointKernels:   a.PointKernels + b.PointKernels,
		BoundKernels:   a.BoundKernels + b.BoundKernels,
		NodesVisited:   a.NodesVisited + b.NodesVisited,
		SamplingRounds: a.SamplingRounds + b.SamplingRounds,
		SampledPoints:  a.SampledPoints + b.SampledPoints,
	}
}

func subCounters(a, b core.Counters) core.Counters {
	return core.Counters{
		Queries:        a.Queries - b.Queries,
		GridHits:       a.GridHits - b.GridHits,
		PointKernels:   a.PointKernels - b.PointKernels,
		BoundKernels:   a.BoundKernels - b.BoundKernels,
		NodesVisited:   a.NodesVisited - b.NodesVisited,
		SamplingRounds: a.SamplingRounds - b.SamplingRounds,
		SampledPoints:  a.SampledPoints - b.SampledPoints,
	}
}

// exactCheck: every HTTP label must equal stream.Model.ClassifyFlat on
// the same rows, which the batch engine's contract makes bit-identical.
type exactCheck struct{ want [][]core.Label }

func newExactCheck(_ *env, clf *core.Classifier, reqs []request) (checker, error) {
	m := stream.NewModel(clf)
	c := &exactCheck{}
	for _, r := range reqs {
		labels, _, err := m.ClassifyFlat(r.flat, r.n)
		if err != nil {
			return nil, fmt.Errorf("expected labels: %w", err)
		}
		c.want = append(c.want, labels)
	}
	return c, nil
}

func (c *exactCheck) check(req int, got []core.Label) (checked, failed int64) {
	for i, l := range got {
		if l != c.want[req][i] {
			failed++
		}
	}
	return int64(len(got)), failed
}

func (c *exactCheck) finish(*report) {}

// exactDensity is the exact simple-KDE density of the model's training
// set, the reference every fast path is checked against.
func exactDensity(clf *core.Classifier) (func(x []float64) float64, error) {
	kern, err := kernel.NewGaussian(clf.Bandwidths())
	if err != nil {
		return nil, err
	}
	return baseline.NewSimple(clf.TrainingData(), kern).Density, nil
}

// inBand reports whether density f lies within the ε band around the
// threshold, where Problem 1 lets a label go either way.
func inBand(clf *core.Classifier, f float64) bool {
	t := clf.Threshold()
	return math.Abs(f-t) <= clf.Config().Epsilon*t
}

// scoreBandCheck: each dual-tree label must equal the per-row Score
// label wherever the row's exact density lies outside the ε band.
type scoreBandCheck struct {
	clf   *core.Classifier
	exact func([]float64) float64
	start []int        // first row of each request
	score []core.Label // per-row Score labels of every posted row
	rows  *points.Store
	// allowed memoizes, per row whose label differed, whether its exact
	// density lies inside the band.
	allowed map[int]bool
}

func newScoreBandCheck(_ *env, clf *core.Classifier, reqs []request) (checker, error) {
	exact, err := exactDensity(clf)
	if err != nil {
		return nil, err
	}
	c := &scoreBandCheck{clf: clf, exact: exact, allowed: map[int]bool{}, rows: clf.TrainingData()}
	for _, r := range reqs {
		c.start = append(c.start, len(c.score))
		// ClassifyFlat is the per-query sweep, bit-identical to per-row
		// Score calls.
		labels, err := clf.ClassifyFlat(r.flat, r.n)
		if err != nil {
			return nil, fmt.Errorf("score labels: %w", err)
		}
		c.score = append(c.score, labels...)
	}
	return c, nil
}

func (c *scoreBandCheck) check(req int, got []core.Label) (checked, failed int64) {
	for i, l := range got {
		row := c.start[req] + i
		if l == c.score[row] {
			continue
		}
		ok, seen := c.allowed[row]
		if !seen {
			ok = inBand(c.clf, c.exact(c.rows.Row(row)))
			c.allowed[row] = ok
		}
		if !ok {
			failed++
		}
	}
	return int64(len(got)), failed
}

func (c *scoreBandCheck) finish(rep *report) {
	inBandRows := 0
	for _, ok := range c.allowed {
		if ok {
			inBandRows++
		}
	}
	rep.printf("check: dual-tree vs per-row Score labels differ on %d of %d rows; %d of those lie in the ε band", len(c.allowed), len(c.score), inBandRows)
}

// kdeCheck: on a fixed probe subset, labels must agree with the exact
// simple KDE outside the ε band. The sampling backend's bounds hold
// with probability 1−δ per query, so a disagreement share up to 4δ is
// expected (over 256 probes a per-query failure probability of δ
// exceeds it with probability below 1e-3); a larger share fails every
// disagreeing answer.
type kdeCheck struct {
	probe    map[int]core.Label // row → exact label, rows outside the band
	start    []int
	band     int // probe rows inside the band, not checked
	probes   int
	delta    float64
	checked  int64
	disagree int64
}

func newKDECheck(e *env, clf *core.Classifier, reqs []request) (checker, error) {
	exact, err := exactDensity(clf)
	if err != nil {
		return nil, err
	}
	rows := clf.TrainingData()
	c := &kdeCheck{probe: map[int]core.Label{}, probes: e.sizes.probes, delta: clf.Config().Delta}
	rng := rand.New(rand.NewSource(e.subSeed(3)))
	for _, row := range rng.Perm(rows.Len())[:min(e.sizes.probes, rows.Len())] {
		f := exact(rows.Row(row))
		switch {
		case inBand(clf, f):
			c.band++
		case f > clf.Threshold():
			c.probe[row] = core.High
		default:
			c.probe[row] = core.Low
		}
	}
	off := 0
	for _, r := range reqs {
		c.start = append(c.start, off)
		off += r.n
	}
	return c, nil
}

// check counts disagreements; whether they fail is decided over the
// whole run in finish, since the bound is on their share.
func (c *kdeCheck) check(req int, got []core.Label) (checked, failed int64) {
	for i, l := range got {
		want, ok := c.probe[c.start[req]+i]
		if !ok {
			continue
		}
		checked++
		if l != want {
			c.disagree++
		}
	}
	c.checked += checked
	return checked, 0
}

func (c *kdeCheck) finish(rep *report) {
	share := 0.0
	if c.checked > 0 {
		share = float64(c.disagree) / float64(c.checked)
	}
	rep.info("check.kde_disagreement_share", share, "ratio",
		fmt.Sprintf("%d of %d probe-row answers outside the ε band (%d of %d probes in the band); fails above %.3g", c.disagree, c.checked, c.band, c.probes, 4*c.delta))
	if share > 4*c.delta {
		rep.op("checked_rows").failed += c.disagree
	}
}
