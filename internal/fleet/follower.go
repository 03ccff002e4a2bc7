package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tkdc/internal/core"
	"tkdc/internal/stream"
	"tkdc/internal/telemetry"
)

// FollowerConfig tunes a Follower. Only URL is required.
type FollowerConfig struct {
	// URL is the leader's base URL (e.g. http://leader:8080); the
	// follower polls URL/snapshot.
	URL string
	// PollEvery is the steady-state poll interval (default 2s). Each wait
	// is jittered ±20% so a fleet restarted together does not thundering-
	// herd the leader forever.
	PollEvery time.Duration
	// MaxBackoff caps the exponential backoff after consecutive failures
	// (default 30s, never below PollEvery).
	MaxBackoff time.Duration
	// StaleAfter, when positive, marks the follower stale once that long
	// has passed without a successful leader contact (fetch or 304). The
	// server surfaces staleness as a 503 on /healthz so load balancers
	// drain the replica; the follower itself keeps serving the last good
	// model either way.
	StaleAfter time.Duration
	// MaxSnapshotBytes rejects snapshot bodies larger than this
	// (default 1 GiB) before buffering them.
	MaxSnapshotBytes int64
	// Workers is applied to each loaded classifier (SetWorkers), so a
	// replica serves with its own host's budget rather than the
	// trainer's. 0 leaves the snapshot's value.
	Workers int
	// Recorder is attached to each loaded classifier so replica telemetry
	// (latency histograms, work counters) keeps flowing across swaps.
	Recorder telemetry.Recorder
	// Client issues the polls (default: dedicated client, 30s timeout).
	Client *http.Client
	// Logger receives sync/fault lines; nil disables logging.
	Logger *slog.Logger
	// Seed drives the poll jitter; 0 derives one from the clock.
	Seed int64
}

func (c FollowerConfig) normalized() (FollowerConfig, error) {
	if c.URL == "" {
		return c, fmt.Errorf("fleet: follower requires a leader URL")
	}
	if !strings.Contains(c.URL, "://") {
		return c, fmt.Errorf("fleet: leader URL %q has no scheme (want e.g. http://host:port)", c.URL)
	}
	if c.PollEvery <= 0 {
		c.PollEvery = 2 * time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.MaxBackoff < c.PollEvery {
		c.MaxBackoff = c.PollEvery
	}
	if c.MaxSnapshotBytes <= 0 {
		c.MaxSnapshotBytes = 1 << 30
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	return c, nil
}

// FollowerStats is a coherent view of a follower's replication state.
type FollowerStats struct {
	// LeaderURL is the followed base URL; LeaderEpoch the last seen
	// leader epoch ID ("" before first contact).
	LeaderURL   string
	LeaderEpoch string

	// Synced is true once a snapshot has ever been applied; the Model
	// handle exists from that point on.
	Synced bool
	// AppliedGeneration is the leader generation currently served;
	// LeaderGeneration the newest generation the leader has advertised
	// (even if applying it failed). GenerationLag is their difference.
	AppliedGeneration uint64
	LeaderGeneration  uint64
	GenerationLag     uint64
	// LocalGeneration counts this replica's own Model swaps (1 = first
	// sync); it differs from AppliedGeneration across leader restarts.
	LocalGeneration uint64

	// LastSync is the time of the last successful leader contact (a 304
	// counts: it confirms the replica is current); SinceSync its age.
	// Stale reports SinceSync > StaleAfter when a threshold is set.
	LastSync  time.Time
	SinceSync time.Duration
	Stale     bool

	// Polls counts poll attempts; NotModified the 304 answers; Applied
	// the snapshots loaded and published; Failures transport/HTTP/load
	// errors; Rejected snapshots refused by validation (checksum
	// mismatch, generation regression).
	Polls, NotModified, Applied int64
	Failures, Rejected          int64

	// LastError is the most recent poll failure ("" after a clean poll).
	LastError string
}

// Follower replicates a leader's model into a local stream.Model handle.
// Construct with NewFollower, call Sync for the blocking first fetch,
// then Start the background poll loop; queries read through Model().
// The poll loop is the only writer of the follower's replication state;
// Stats and the query path are safe from any goroutine.
type Follower struct {
	cfg     FollowerConfig
	snapURL string
	rng     *rand.Rand // poll jitter; loop goroutine only

	model atomic.Pointer[stream.Model] // nil until first applied snapshot

	mu          sync.Mutex // guards etag, epoch, lastErr
	etag        string     // SHA-256 of the applied snapshot bytes
	epoch       string     // leader epoch of the applied snapshot
	lastErr     string
	appliedGen  atomic.Uint64
	leaderGen   atomic.Uint64
	localGen    atomic.Uint64
	lastSyncNS  atomic.Int64
	polls       atomic.Int64
	notModified atomic.Int64
	applied     atomic.Int64
	failures    atomic.Int64
	rejected    atomic.Int64

	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewFollower validates the configuration and builds an unsynced
// follower. It performs no I/O; call Sync to fetch the first snapshot.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	return &Follower{
		cfg:     cfg,
		snapURL: strings.TrimRight(cfg.URL, "/") + "/snapshot",
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		done:    make(chan struct{}),
	}, nil
}

// Model returns the replica's zero-downtime query handle, or nil before
// the first successful Sync. The same handle stays valid across every
// later swap, so wire it into a server once and forget it.
func (f *Follower) Model() *stream.Model { return f.model.Load() }

// Sync blocks until one snapshot has been fetched and applied, retrying
// with backoff until ctx is done. It is the bootstrap step: a replica
// has nothing to serve before its first snapshot.
func (f *Follower) Sync(ctx context.Context) error {
	for attempt := 0; ; attempt++ {
		applied, err := f.poll()
		if err == nil && (applied || f.Model() != nil) {
			return nil
		}
		if err == nil {
			err = fmt.Errorf("fleet: leader answered 304 to an unsynced follower")
		}
		wait := f.backoff(attempt)
		if f.cfg.Logger != nil {
			f.cfg.Logger.Warn("fleet: initial sync failed, retrying",
				slog.String("leader", f.cfg.URL),
				slog.Duration("retry_in", wait),
				slog.String("error", err.Error()))
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet: initial sync from %s: %w (last error: %v)", f.cfg.URL, ctx.Err(), err)
		case <-time.After(wait):
		}
	}
}

// Start launches the background poll loop. Call after a successful Sync;
// Close stops it.
func (f *Follower) Start() {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		fails := 0
		for {
			var wait time.Duration
			if fails == 0 {
				wait = f.jitter(f.cfg.PollEvery)
			} else {
				wait = f.backoff(fails - 1)
			}
			select {
			case <-f.done:
				return
			case <-time.After(wait):
			}
			if _, err := f.poll(); err != nil {
				fails++
			} else {
				fails = 0
			}
		}
	}()
}

// Close stops the poll loop. Idempotent; the Model handle keeps serving
// the last good generation afterwards.
func (f *Follower) Close() {
	f.stopOnce.Do(func() { close(f.done) })
	f.wg.Wait()
}

// jitter spreads d by ±20%.
func (f *Follower) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	frac := 0.8 + 0.4*f.rng.Float64()
	return time.Duration(float64(d) * frac)
}

// backoff returns the jittered exponential delay after `attempt`
// consecutive failures (attempt 0 = first retry).
func (f *Follower) backoff(attempt int) time.Duration {
	d := f.cfg.PollEvery
	for i := 0; i < attempt && d < f.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > f.cfg.MaxBackoff {
		d = f.cfg.MaxBackoff
	}
	return f.jitter(d)
}

// poll performs one conditional fetch against the leader and applies the
// snapshot if it is new and valid. It returns (true, nil) when a new
// generation was published locally, (false, nil) on 304/no-op, and a
// non-nil error on any fault — in which case the previously published
// model keeps serving untouched.
func (f *Follower) poll() (bool, error) {
	f.polls.Add(1)
	applied, err := f.pollOnce()
	f.mu.Lock()
	if err != nil {
		f.lastErr = err.Error()
	} else {
		f.lastErr = ""
	}
	f.mu.Unlock()
	if err != nil && f.cfg.Logger != nil {
		f.cfg.Logger.Warn("fleet: poll failed",
			slog.String("leader", f.cfg.URL),
			slog.String("error", err.Error()))
	}
	return applied, err
}

func (f *Follower) pollOnce() (bool, error) {
	req, err := http.NewRequest(http.MethodGet, f.snapURL, nil)
	if err != nil {
		f.failures.Add(1)
		return false, fmt.Errorf("fleet: build request: %w", err)
	}
	f.mu.Lock()
	if f.etag != "" {
		req.Header.Set("If-None-Match", `"`+f.etag+`"`)
	}
	prevEpoch := f.epoch
	f.mu.Unlock()

	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		f.failures.Add(1)
		return false, fmt.Errorf("fleet: fetch snapshot: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()

	// The advertised generation is tracked even when the body later fails
	// validation: lag reporting must reflect where the leader is, not
	// where we managed to get.
	hdrGen, hdrGenOK := parseGen(resp.Header.Get(HeaderGeneration))
	epoch := resp.Header.Get(HeaderLeader)
	sameEpoch := epoch == "" || prevEpoch == "" || epoch == prevEpoch
	if hdrGenOK && sameEpoch {
		f.leaderGen.Store(hdrGen)
	}

	switch resp.StatusCode {
	case http.StatusNotModified:
		// Confirmed current: refresh the sync clock.
		f.notModified.Add(1)
		f.lastSyncNS.Store(time.Now().UnixNano())
		return false, nil
	case http.StatusOK:
	default:
		f.failures.Add(1)
		return false, fmt.Errorf("fleet: leader answered %s", resp.Status)
	}
	if !hdrGenOK {
		f.failures.Add(1)
		return false, fmt.Errorf("fleet: leader response missing %s header", HeaderGeneration)
	}

	// Reject a generation that does not advance within the same leader
	// epoch. A changed epoch means the leader restarted: its counter
	// reset, so whatever it serves now is the truth to follow.
	if sameEpoch && f.Model() != nil && hdrGen <= f.appliedGen.Load() {
		f.rejected.Add(1)
		return false, fmt.Errorf("fleet: generation regression: leader %s serves gen %d, already applied gen %d",
			f.cfg.URL, hdrGen, f.appliedGen.Load())
	}

	body, err := io.ReadAll(io.LimitReader(resp.Body, f.cfg.MaxSnapshotBytes+1))
	if err != nil {
		// Torn transfer: Content-Length promised more than arrived.
		f.failures.Add(1)
		return false, fmt.Errorf("fleet: read snapshot body: %w", err)
	}
	if int64(len(body)) > f.cfg.MaxSnapshotBytes {
		f.failures.Add(1)
		return false, fmt.Errorf("fleet: snapshot exceeds %d bytes", f.cfg.MaxSnapshotBytes)
	}
	if cl := resp.ContentLength; cl >= 0 && cl != int64(len(body)) {
		f.failures.Add(1)
		return false, fmt.Errorf("fleet: torn snapshot: got %d of %d bytes", len(body), cl)
	}
	sum := sha256.Sum256(body)
	sumHex := hex.EncodeToString(sum[:])
	if want := resp.Header.Get(HeaderSHA256); want != "" && !strings.EqualFold(want, sumHex) {
		f.rejected.Add(1)
		return false, fmt.Errorf("fleet: snapshot checksum mismatch: leader advertised %s, body hashes to %s", want, sumHex)
	}

	// core.Load verifies the frame's payload checksum again and rebuilds
	// the index; any corruption that slipped past the transport hash
	// (or a leader serving garbage with a matching header) dies here.
	clf, err := core.Load(bytes.NewReader(body))
	if err != nil {
		f.rejected.Add(1)
		return false, fmt.Errorf("fleet: load snapshot: %w", err)
	}
	if f.cfg.Workers > 0 {
		clf.SetWorkers(f.cfg.Workers)
	}
	clf.SetRecorder(f.cfg.Recorder)

	var local uint64
	if m := f.Model(); m != nil {
		local = m.Publish(clf)
	} else {
		f.model.Store(stream.NewModel(clf))
		local = 1
	}
	f.mu.Lock()
	f.etag = sumHex
	f.epoch = epoch
	f.mu.Unlock()
	f.appliedGen.Store(hdrGen)
	f.leaderGen.Store(hdrGen)
	f.localGen.Store(local)
	f.lastSyncNS.Store(time.Now().UnixNano())
	f.applied.Add(1)
	if f.cfg.Logger != nil {
		f.cfg.Logger.Info("fleet: snapshot applied",
			slog.String("leader", f.cfg.URL),
			slog.Uint64("leader_generation", hdrGen),
			slog.Uint64("local_generation", local),
			slog.Int("bytes", len(body)),
			slog.String("sha256", sumHex))
	}
	return true, nil
}

// parseGen parses a generation header value.
func parseGen(s string) (uint64, bool) {
	if s == "" {
		return 0, false
	}
	g, err := strconv.ParseUint(s, 10, 64)
	return g, err == nil
}

// Stale reports whether the follower has gone longer than StaleAfter
// without a successful leader contact (always false with no threshold).
func (f *Follower) Stale() bool {
	if f.cfg.StaleAfter <= 0 {
		return false
	}
	last := f.lastSyncNS.Load()
	if last == 0 {
		return true // never synced
	}
	return time.Since(time.Unix(0, last)) > f.cfg.StaleAfter
}

// Stats snapshots the replication state.
func (f *Follower) Stats() FollowerStats {
	st := FollowerStats{
		LeaderURL:         f.cfg.URL,
		Synced:            f.Model() != nil,
		AppliedGeneration: f.appliedGen.Load(),
		LeaderGeneration:  f.leaderGen.Load(),
		LocalGeneration:   f.localGen.Load(),
		Polls:             f.polls.Load(),
		NotModified:       f.notModified.Load(),
		Applied:           f.applied.Load(),
		Failures:          f.failures.Load(),
		Rejected:          f.rejected.Load(),
		Stale:             f.Stale(),
	}
	if st.LeaderGeneration > st.AppliedGeneration {
		st.GenerationLag = st.LeaderGeneration - st.AppliedGeneration
	}
	if ns := f.lastSyncNS.Load(); ns != 0 {
		st.LastSync = time.Unix(0, ns)
		st.SinceSync = time.Since(st.LastSync)
	}
	f.mu.Lock()
	st.LastError = f.lastErr
	st.LeaderEpoch = f.epoch
	f.mu.Unlock()
	return st
}
