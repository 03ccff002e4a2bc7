package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tkdc/internal/core"
	"tkdc/internal/fleet"
	"tkdc/internal/points"
	"tkdc/internal/server"
	"tkdc/internal/stream"
	"tkdc/internal/telemetry"
)

// leader is one refresh set-up: a streaming service behind the server,
// its snapshot publisher, and an in-process follower that fetches over
// the writer connection.
type leader struct {
	svc    *stream.Service
	pub    *fleet.Publisher
	ls     *liveServer
	fol    *fleet.Follower
	writer *http.Client
}

func (l *leader) close() {
	l.fol.Close()
	l.ls.close()
	_ = l.svc.Close() // no snapshot path, so Close cannot fail
	closeClient(l.writer)
}

// setupRefresh trains the initial model, prefills the service's
// reservoir with its rows, starts the server and runs the follower's
// first Sync, sizes.setups times; every set-up but the last is torn
// down again.
func (e *env) setupRefresh(train *points.Store, tr *tracer) (*leader, []float64, []core.TrainStats, error) {
	var times []float64
	var stats []core.TrainStats
	var last *leader
	for i := range e.sizes.setups {
		if last != nil {
			last.close()
		}
		e.cal.sample()
		start := time.Now()
		l, err := e.newLeader(train, tr)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, seconds(time.Since(start)))
		stats = append(stats, l.svc.Model().Current().TrainStats())
		last = l
	}
	e.cal.sample()
	return last, times, stats, nil
}

func (e *env) newLeader(train *points.Store, tr *tracer) (*leader, error) {
	reg := telemetry.NewRegistry()
	clf, err := core.TrainStore(train, trainConfig(e.opts.seed, reg))
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	svc, err := stream.NewService(clf, stream.Config{
		Capacity: train.Len(),
		Seed:     e.opts.seed,
		Shards:   stream.DefaultShards(),
		Prefill:  true,
		Recorder: reg,
	})
	if err != nil {
		return nil, err
	}
	pub := fleet.NewPublisher(svc.Model())
	srv := server.New(nil, server.Options{Registry: reg, Stream: svc, Publisher: pub})
	ls, err := startServer(srv, handlerFor(srv, tr))
	if err != nil {
		return nil, err
	}
	l := &leader{svc: svc, pub: pub, ls: ls, writer: newClient()}
	l.fol, err = fleet.NewFollower(fleet.FollowerConfig{
		URL:      ls.url,
		Workers:  runtime.GOMAXPROCS(0),
		Recorder: telemetry.NewRegistry(),
		Client:   l.writer,
		Seed:     e.opts.seed,
	})
	if err != nil {
		ls.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := l.fol.Sync(ctx); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// readerThink is the reader's pause between requests. A reader that
// never pauses takes a whole core from the retrain, and how much it takes
// swings with its own latency; a light reader leaves the retrain a
// steady two cores while still timing the reads a retrain slows.
const readerThink = time.Millisecond

// reader is the closed-loop /classify connection that runs beside the
// refresh cycles, pausing readerThink between requests.
type reader struct {
	p      *poster
	url    string
	reqs   []request
	tr     *tracer
	replay atomic.Pointer[stream.Model] // copy of the generation last synced; traced phase only
	// gate is held around each request; the cycler takes it to pause
	// the reader while the host reference runs.
	gate sync.Mutex

	lat            []time.Duration
	calls, failed  int64
	rows           int64
	stop           chan struct{}
	done           chan struct{}
	labels         []core.Label
	start, stopped time.Time
}

func newReader(url string, reqs []request) *reader {
	return &reader{p: &poster{client: newClient()}, url: url, reqs: reqs}
}

// begin starts a measured phase; end stops it and waits for the loop.
func (r *reader) begin(tr *tracer) {
	r.tr, r.lat, r.calls, r.failed, r.rows = tr, nil, 0, 0, 0
	r.stop, r.done = make(chan struct{}), make(chan struct{})
	r.start = time.Now()
	go r.loop()
}

func (r *reader) end() {
	close(r.stop)
	<-r.done
	r.stopped = time.Now()
}

func (r *reader) loop() {
	defer close(r.done)
	for i := 0; ; i++ {
		select {
		case <-r.stop:
			return
		default:
		}
		q := r.reqs[i%len(r.reqs)]
		var id int64
		if r.tr != nil {
			id = r.tr.newIDs(3)
		}
		r.calls++
		r.gate.Lock()
		start := time.Now()
		status, body, err := r.p.post(r.url+"/classify", q.body, id)
		lat := time.Since(start)
		r.gate.Unlock()
		r.lat = append(r.lat, lat)
		if r.tr != nil {
			r.tr.record(span{id: id, group: id, name: "client/classify", start: start, end: start.Add(lat)})
			if m := r.replay.Load(); m != nil {
				r.tr.timed(id+2, id+1, id, "stream.Model.ClassifyFlat", true, func() { _, _, _ = m.ClassifyFlat(q.flat, q.n) })
			}
		}
		if err == nil && status == http.StatusOK {
			r.labels, _, err = parseLabels(body, r.labels)
		}
		if err != nil || status != http.StatusOK || len(r.labels) != q.n {
			r.failed++
		} else {
			r.rows += int64(q.n)
		}
		time.Sleep(readerThink)
	}
}

// cycleStats is one measured phase of refresh cycles.
type cycleStats struct {
	cycles    []time.Duration // ingest start → Sync return
	refresh   []time.Duration // last ingest response → Sync return
	ingest    time.Duration   // time inside /ingest requests
	ingested  int64
	cycleRows int64
	retrain   []time.Duration
	snapshot  []time.Duration // retrain span minus its training time
	publish   []time.Duration
	sync      []time.Duration
	models    []core.TrainStats // every generation retrained
	work      core.Counters     // leader query work, all generations
	mem       [2]runtime.MemStats
	requests  int64 // reader requests plus ingest batches
}

// rowsPerSec is the median over cycles of ingested rows per second of
// cycle: rows carried from /ingest to the follower's answers.
func (c *cycleStats) rowsPerSec() float64 {
	rates := make([]float64, len(c.cycles))
	for i, d := range c.cycles {
		rates[i] = float64(c.cycleRows) / d.Seconds()
	}
	return median(rates)
}

// cycler runs ingest → retrain → publish → sync cycles over the writer
// connection.
type cycler struct {
	e      *env
	l      *leader
	p      *poster
	probe  *points.Store
	cycle  int
	ingest *stream.ShardedIngestor // replay target, traced phase only

	batches, retrains, syncs, rows *opCount
}

// run repeats cycles until d has elapsed, with the reader posting
// beside them. The last cycle always completes.
func (d *cycler) run(dur time.Duration, rd *reader, tr *tracer) (*cycleStats, error) {
	cs := &cycleStats{}
	runtime.ReadMemStats(&cs.mem[0])
	cur := d.l.svc.Model().Current()
	base := cur.Stats()
	rd.begin(tr)
	deadline := time.Now().Add(dur)
	for {
		if err := d.one(cs, tr, rd); err != nil {
			rd.end()
			return nil, err
		}
		cs.work = addCounters(cs.work, subCounters(cur.Stats(), base))
		cur, base = d.l.svc.Model().Current(), core.Counters{}
		if time.Now().After(deadline) {
			break
		}
	}
	rd.end()
	cs.work = addCounters(cs.work, subCounters(cur.Stats(), base))
	runtime.ReadMemStats(&cs.mem[1])
	cs.requests += rd.calls
	return cs, nil
}

// calibrate pauses the reader for a host reference run when one is due
// and returns the time the pause took.
func (d *cycler) calibrate(rd *reader) time.Duration {
	if !d.e.cal.due() {
		return 0
	}
	rd.gate.Lock()
	defer rd.gate.Unlock()
	return d.e.calibrate()
}

// one runs a single cycle and checks the follower against the leader.
func (d *cycler) one(cs *cycleStats, tr *tracer, rd *reader) error {
	s := d.e.sizes
	fresh, err := generate("gauss", s.ingestRows, 2, d.e.subSeed(int64(100+d.cycle)))
	if err != nil {
		return err
	}
	d.cycle++
	bodies := splitRequests(fresh, s.ingestBatch)
	cid := tr.newID()

	cycleStart := time.Now()
	var paused time.Duration
	for _, b := range bodies {
		paused += d.calibrate(rd)
		d.batches.attempted++
		var id int64
		if tr != nil {
			id = tr.newIDs(3)
		}
		start := time.Now()
		status, body, err := d.p.post(d.l.ls.url+"/ingest", b.body, id)
		took := time.Since(start)
		cs.ingest += took
		cs.requests++
		if tr != nil {
			tr.record(span{id: id, parent: cid, group: id, name: "client/ingest", start: start, end: start.Add(took)})
			var rerr error
			tr.timed(id+2, id+1, id, "stream.ShardedIngestor.AddFlat", true, func() { _, rerr = d.ingest.AddFlat(b.flat, 2) })
			if rerr != nil {
				return fmt.Errorf("replay ingest: %w", rerr)
			}
		}
		accepted, ok := jsonUint(body, `"accepted":`)
		if err != nil || status != http.StatusOK || !ok || accepted != uint64(b.n) {
			d.batches.failed++
			d.e.rep.printf("ingest batch: status %d, accepted %d of %d, error %v", status, accepted, b.n, err)
			continue
		}
		cs.ingested += int64(b.n)
	}
	lastIngest := time.Now()

	d.retrains.attempted++
	rid := tr.newID()
	start := time.Now()
	err = d.l.svc.Retrain()
	retrain := time.Since(start)
	if err != nil {
		d.retrains.failed++
		d.e.rep.printf("retrain: %v", err)
	}
	clf := d.l.svc.Model().Current()
	trained := d.l.svc.Stats().LastRetrainDuration
	if tr != nil {
		tr.record(span{id: rid, parent: cid, group: cid, name: "stream.Service.Retrain", start: start, end: start.Add(retrain)})
		// Training phases as children of the retrain span; only their
		// durations are measured, so they are laid out back to back.
		at := start
		for _, ph := range clf.TrainStats().Phases {
			tr.record(span{id: tr.newIDs(1), parent: rid, group: cid, name: "core.train/" + ph.Name, start: at, end: at.Add(ph.Duration)})
			at = at.Add(ph.Duration)
		}
	}

	pid := tr.newID()
	pubStart := time.Now()
	d.l.pub.Refresh()
	publish := time.Since(pubStart)
	snap, err := d.l.pub.Current()
	if err != nil {
		return fmt.Errorf("publisher: %w", err)
	}

	fsBefore := d.l.fol.Stats()
	d.syncs.attempted++
	sid := tr.newID()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	start = time.Now()
	err = d.l.fol.Sync(ctx)
	syncTook := time.Since(start)
	cancel()
	end := start.Add(syncTook)

	if tr != nil {
		tr.record(span{id: cid, group: cid, name: "cycle", start: cycleStart, end: end})
		tr.record(span{id: pid, parent: cid, group: cid, name: "fleet.Publisher.Refresh", start: pubStart, end: pubStart.Add(publish)})
		tr.timed(tr.newIDs(1), pid, cid, "core.Classifier.EncodeSnapshot", true, func() { _, _, _ = clf.EncodeSnapshot() })
		tr.record(span{id: sid, parent: cid, group: cid, name: "fleet.Follower.Sync", start: start, end: end})
		var cp *core.Classifier
		var lerr error
		tr.timed(tr.newIDs(1), sid, cid, "core.Load", true, func() { cp, lerr = core.Load(bytes.NewReader(snap.Data)) })
		if lerr != nil {
			return fmt.Errorf("replay load: %w", lerr)
		}
		cp.SetWorkers(runtime.GOMAXPROCS(0))
		cp.SetRecorder(telemetry.NewRegistry())
		rd.replay.Store(stream.NewModel(cp))
	}

	cs.cycles = append(cs.cycles, end.Sub(cycleStart)-paused)
	cs.refresh = append(cs.refresh, end.Sub(lastIngest))
	cs.cycleRows = int64(s.ingestRows)
	cs.retrain = append(cs.retrain, retrain)
	cs.snapshot = append(cs.snapshot, retrain-trained)
	cs.publish = append(cs.publish, publish)
	cs.sync = append(cs.sync, syncTook)
	cs.models = append(cs.models, clf.TrainStats())

	// The follower must serve the generation just trained, and answer a
	// fixed probe set exactly as the leader does.
	fs := d.l.fol.Stats()
	leaderGen := d.l.svc.Model().Generation()
	if err != nil || fs.AppliedGeneration != leaderGen || fs.Failures+fs.Rejected != fsBefore.Failures+fsBefore.Rejected {
		d.syncs.failed++
		d.e.rep.printf("follower sync: applied generation %d, leader %d, failures+rejections %d, error %v",
			fs.AppliedGeneration, leaderGen, fs.Failures+fs.Rejected, err)
		return nil
	}
	want, _, err := d.l.svc.Model().ClassifyFlat(d.probe.Data, d.probe.Len())
	if err != nil {
		return fmt.Errorf("probe leader: %w", err)
	}
	got, _, err := d.l.fol.Model().ClassifyFlat(d.probe.Data, d.probe.Len())
	if err != nil {
		return fmt.Errorf("probe follower: %w", err)
	}
	d.rows.attempted += int64(len(want))
	for i := range want {
		if got[i] != want[i] {
			d.rows.failed++
		}
	}
	d.calibrate(rd)
	return nil
}

// runRefresh runs the refresh workload: set-up, one warm-up cycle, and a
// measured phase of cycles; with tracing, a second, traced phase
// follows.
func runRefresh(e *env) error {
	s := e.sizes
	train, err := generate("gauss", s.n, 2, e.subSeed(1))
	if err != nil {
		return err
	}
	readRows, err := generate("gauss", s.requests*s.reqRows, 2, e.subSeed(2))
	if err != nil {
		return err
	}
	probe, err := generate("gauss", s.probes, 2, e.subSeed(3))
	if err != nil {
		return err
	}
	var tr *tracer
	if e.opts.trace {
		tr = &tracer{}
	}
	l, setupTimes, trainStats, err := e.setupRefresh(train, tr)
	if err != nil {
		return err
	}
	defer l.close()
	e.rep.printf("leader: n=%d d=2 capacity=%d shards=%d; cycle ingests %d rows in %d-row batches; reader posts %d-row requests",
		s.n, s.n, l.svc.Stats().Shards, s.ingestRows, s.ingestBatch, s.reqRows)

	rd := newReader(l.ls.url, splitRequests(readRows, s.reqRows))
	defer closeClient(rd.p.client)
	d := &cycler{e: e, l: l, p: &poster{client: l.writer}, probe: probe,
		batches: e.rep.op("ingest_batches"), retrains: e.rep.op("retrains"),
		syncs: e.rep.op("follower_syncs"), rows: e.rep.op("checked_rows")}
	reads := e.rep.op("classify_requests")
	collect := func() {
		reads.attempted += rd.calls
		reads.failed += rd.failed
	}

	if _, err := d.run(0, rd, nil); err != nil { // one warm-up cycle
		return err
	}
	collect()
	untraced, err := d.run(e.opts.seconds, rd, nil)
	if err != nil {
		return err
	}
	collect()
	readerP50 := median(durations(rd.lat, micros))
	readerN := len(rd.lat)

	if !e.opts.trace {
		e.addEndToEnd(median(setupTimes), fmt.Sprintf("median of %d set-ups (train + prefill + start server + follower Sync)", len(setupTimes)),
			rd.lat, fmt.Sprintf("%d reader requests during %d cycles", readerN, len(untraced.cycles)),
			untraced.rowsPerSec(), fmt.Sprintf("median over %d cycles of %d rows ingested, retrained, published and synced", len(untraced.cycles), untraced.cycleRows))
		// The latency sample grows with throughput; drop it so heap_mb
		// holds the program's memory and the fixed inputs only.
		rd.lat = nil
		e.addHeap()
		e.rep.info("refresh_s", median(durations(untraced.refresh, seconds)), "s", fmt.Sprintf("median over %d cycles, last /ingest response → Follower.Sync return", len(untraced.refresh)))
		e.rep.info("ingest_rows_per_s", float64(untraced.ingested)/untraced.ingest.Seconds(), "rows/s", fmt.Sprintf("%d rows over %d cycles", untraced.ingested, len(untraced.cycles)))
		e.rep.info("reader_rows_per_s", float64(rd.rows)/rd.stopped.Sub(rd.start).Seconds(), "rows/s", "reader connection over the phase")
		return nil
	}

	if d.ingest, err = stream.NewShardedIngestor(s.n, 2, e.opts.seed, false, stream.DefaultShards()); err != nil {
		return err
	}
	cp, err := copyOf(l.svc.Model().Current())
	if err != nil {
		return err
	}
	rd.replay.Store(stream.NewModel(cp))
	traced, err := d.run(e.opts.seconds, rd, tr)
	if err != nil {
		return err
	}
	collect()
	tracedP50 := median(durations(rd.lat, micros))
	e.rep.printf("work (refresh reads span generation swaps, so these are not compared): %+v", untraced.work)

	lv := newLayerValues()
	reqNote := fmt.Sprintf("p50 over %d traced reader requests", rd.calls)
	lv.set("server.handler_us", median(durations(tr.durationsOf("server/classify"), micros)), "%s", reqNote)
	lv.set("server.self_us", median(durations(tr.selfOf("server/classify"), micros)), "%s", reqNote)
	lv.set("server.transport_us", median(durations(tr.selfOf("client/classify"), micros)), "%s", reqNote)
	lv.set("stream.classify_us", median(durations(tr.durationsOf("stream.Model.ClassifyFlat"), micros)), "%s", reqNote)
	batchNote := fmt.Sprintf("p50 over %d traced ingest batches", traced.ingested/int64(s.ingestBatch))
	lv.set("server.ingest_handler_us", median(durations(tr.durationsOf("server/ingest"), micros)), "%s", batchNote)
	lv.set("stream.ingest_us", median(durations(tr.durationsOf("stream.ShardedIngestor.AddFlat"), micros)), "%s", batchNote)
	cycleNote := fmt.Sprintf("median over %d traced cycles", len(traced.cycles))
	lv.set("stream.retrain_s", median(durations(traced.retrain, seconds)), "%s", cycleNote)
	lv.set("stream.snapshot_ms", median(durations(traced.snapshot, millis)), "%s", cycleNote)
	lv.setRuntime(untraced.mem[0], untraced.mem[1], untraced.requests)
	lv.setTraining(append(append(trainStats, untraced.models...), traced.models...), "set-up and retrained models")
	lv.setWork(untraced.work, "leader generations of the untraced phase")
	if err := lv.replayBuilds(l.svc.Model().Current(), s.replays); err != nil {
		return err
	}
	lv.set("core.encode_ms", median(durations(tr.durationsOf("core.Classifier.EncodeSnapshot"), millis)), "%s of replayed encodes", cycleNote)
	lv.set("core.load_ms", median(durations(tr.durationsOf("core.Load"), millis)), "%s of replayed loads", cycleNote)
	snap, err := l.pub.Current()
	if err != nil {
		return err
	}
	lv.set("core.snapshot_bytes", float64(len(snap.Data)), "last published snapshot")
	lv.set("fleet.publish_ms", median(durations(traced.publish, millis)), "%s", cycleNote)
	lv.set("fleet.sync_ms", median(durations(traced.sync, millis)), "%s", cycleNote)
	lv.set("fleet.transfer_ms", median(durations(tr.selfOf("fleet.Follower.Sync"), millis)), "%s, sync minus replayed load", cycleNote)
	fs := l.fol.Stats()
	lv.set("fleet.failed", float64(fs.Failures+fs.Rejected), "follower failures plus rejections over the run")
	lv.set("cycle.refresh_s", median(durations(untraced.refresh, seconds)), "median over %d untraced cycles", len(untraced.refresh))
	lv.set("cycle.ingest_rows_per_s", float64(untraced.ingested)/untraced.ingest.Seconds(), "%d rows over %d untraced cycles", untraced.ingested, len(untraced.cycles))
	lv.set("host.factor", e.cal.factor(), "median of %d reference runs over %v", len(e.cal.samples), refNominal)
	lv.setOverhead(readerP50, tracedP50, untraced.rowsPerSec(), traced.rowsPerSec())
	lv.emit(e.rep)
	return tr.write(e.opts.spans)
}
