package stream

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tkdc/internal/core"
	"tkdc/internal/telemetry"
)

// Config tunes the streaming service. The zero value of every field is
// usable: defaults are filled in by NewService.
type Config struct {
	// Capacity bounds the in-memory sample (default 100 000 rows).
	Capacity int
	// Window keeps a sliding window of the most recent Capacity rows
	// instead of a uniform reservoir, so retrains track drift.
	Window bool
	// Seed drives reservoir eviction and the drift probe; ingestion and
	// retraining are deterministic for a fixed seed and batch sequence.
	Seed int64
	// Shards is ignored.
	//
	// Deprecated: the sample has one lock, so there is no shard count.
	Shards int

	// RetrainEvery retrains after this many newly ingested rows
	// (0 disables the count trigger).
	RetrainEvery int64
	// MaxModelAge retrains when the live model is older than this and new
	// rows have arrived since it was trained (0 disables the age trigger).
	MaxModelAge time.Duration
	// DriftTolerance retrains when a cheap bootstrap-style threshold
	// probe over the current sample (512 reference rows, 256 probe
	// queries) differs from the live threshold by more than this
	// relative fraction (0 disables the drift trigger).
	DriftTolerance float64

	// CheckInterval paces the background trigger checks (default 500ms).
	CheckInterval time.Duration

	// SnapshotPath, when non-empty, receives an atomic on-disk model
	// snapshot (temp file + rename) after every swap and on Close.
	SnapshotPath string

	// Train configures retrains. The zero value inherits the initial
	// classifier's configuration, which keeps retrained models directly
	// comparable to the model they replace. Config.Workers flows through
	// here: background retrains fan the tree build, bootstrap scoring,
	// and grid fill out over the same worker budget the initial training
	// used.
	Train core.Config

	// Prefill seeds the sample with the initial classifier's training
	// rows, so the first retrain does not forget the batch-trained model.
	// Leave false when the stream alone should define the sample (e.g.
	// the determinism bridge: feed rows, retrain, compare to batch Train).
	Prefill bool

	// Recorder receives one telemetry span per retrain
	// ("retrain/gen-N") and is attached to retrains' Train config. Nil
	// inherits Train.Recorder (telemetry off if that is nil too).
	Recorder telemetry.Recorder

	// OnSwap, when non-nil, is called after each publish with the new
	// generation number, from the retrain goroutine. The replication
	// publisher hooks here to re-encode the snapshot eagerly (off the
	// follower fetch path); keep it fast — it delays the next trigger
	// check, never queries.
	OnSwap func(gen uint64)
}

// Stats is a coherent view of the streaming lifecycle.
type Stats struct {
	// Generation and ModelAge describe the live model.
	Generation uint64
	ModelAge   time.Duration
	ModelN     int
	Threshold  float64

	// Ingested counts rows ever accepted; SampleSize is the bounded
	// sample's current occupancy; Pending counts rows ingested since the
	// live sample was last trained on.
	Ingested   int64
	SampleSize int
	Capacity   int
	Window     bool
	Pending    int64

	// Shards is always 1.
	//
	// Deprecated: the sample has one lock, so there is no shard count.
	Shards int

	// Retrains counts completed retrains (publishes); LastError is the
	// most recent background retrain or snapshot failure, "" when clean.
	Retrains  int64
	LastError string

	// DriftScore is the most recent drift probe's relative threshold
	// deviation |probe−live|/live (0 before any probe); DriftProbes
	// counts probes run. LastRetrainReason names the trigger behind the
	// most recent retrain ("count", "age", "drift", or "manual") and
	// LastRetrainDuration its wall-clock training time.
	DriftScore          float64
	DriftProbes         int64
	LastRetrainReason   string
	LastRetrainDuration time.Duration
}

// Service owns the streaming lifecycle: it accepts ingest batches,
// watches retrain triggers from a background goroutine, and publishes
// rebuilt classifiers through its Model handle. Construct with
// NewService, begin background retraining with Start, and Close on
// shutdown (idempotent; writes a final snapshot).
type Service struct {
	cfg      Config
	trainCfg core.Config
	ing      *Ingestor
	model    *Model
	rec      telemetry.Recorder

	retrainMu   sync.Mutex // serializes retrains
	lastTrained atomic.Int64
	retrains    atomic.Int64
	probeSeq    atomic.Int64

	// Drift and retrain observability: the latest probe's relative
	// deviation (float bits), probe count, and the last retrain's
	// trigger + duration.
	driftScore    atomic.Uint64
	driftProbes   atomic.Int64
	lastReason    atomic.Pointer[string]
	lastRetrainNS atomic.Int64

	errMu   sync.Mutex
	lastErr error

	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewService wraps an initial trained classifier in a streaming
// lifecycle. The classifier stays live until the first retrain swaps it
// out; its configuration becomes the retrain configuration unless
// cfg.Train overrides it.
func NewService(initial *core.Classifier, cfg Config) (*Service, error) {
	if initial == nil {
		return nil, fmt.Errorf("stream: NewService requires an initial classifier")
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 100_000
	}
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = 500 * time.Millisecond
	}
	if cfg.RetrainEvery < 0 || cfg.Capacity < 0 {
		return nil, fmt.Errorf("stream: negative Capacity or RetrainEvery")
	}
	trainCfg := cfg.Train
	if trainCfg.P == 0 {
		// An unset Train config (P is required, so 0 means "not
		// configured") inherits the initial classifier's parameters.
		trainCfg = initial.Config()
	}
	if cfg.Recorder != nil {
		trainCfg.Recorder = cfg.Recorder
	}
	rec := trainCfg.Recorder
	if rec == nil {
		rec = telemetry.Nop{}
	}

	ing, err := NewIngestor(cfg.Capacity, initial.Dim(), cfg.Seed, cfg.Window)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:      cfg,
		trainCfg: trainCfg,
		ing:      ing,
		model:    NewModel(initial),
		rec:      rec,
		done:     make(chan struct{}),
	}
	if cfg.Prefill {
		data := initial.TrainingData()
		if _, err := ing.AddFlat(data.Data, data.Dim); err != nil {
			return nil, fmt.Errorf("stream: prefill: %w", err)
		}
		// The prefilled rows are already served by the initial model;
		// only rows beyond them count toward the retrain triggers.
		s.lastTrained.Store(ing.Seen())
	}
	return s, nil
}

// Model returns the zero-downtime query handle. It remains valid for the
// life of the service (and after Close).
func (s *Service) Model() *Model { return s.model }

// Ingest validates and ingests a batch of rows, returning how many were
// accepted. The batch is rejected whole on the first malformed row.
// Ingestion never blocks on retraining: it contends only with other
// ingest batches and the brief sample copy at the start of a retrain.
func (s *Service) Ingest(rows [][]float64) (int, error) {
	return s.ing.Add(rows)
}

// IngestFlat is Ingest over rows already in flat row-major form (the
// server's parse buffer), avoiding per-row slice re-boxing.
func (s *Service) IngestFlat(flat []float64, dim int) (int, error) {
	return s.ing.AddFlat(flat, dim)
}

// Start launches the background retrainer, which checks triggers every
// CheckInterval and rebuilds off the query path when one fires. Safe to
// call at most once; Close stops it.
func (s *Service) Start() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(s.cfg.CheckInterval)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
				if _, err := s.maybeRetrain(); err != nil {
					s.setErr(err)
				}
			}
		}
	}()
}

// Close stops the background retrainer and writes a final atomic
// snapshot of the live model when SnapshotPath is configured.
// Idempotent; the Model handle keeps serving afterwards.
func (s *Service) Close() error {
	s.stopOnce.Do(func() { close(s.done) })
	s.wg.Wait()
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	return s.model.Current().SaveFile(s.cfg.SnapshotPath)
}

// Retrain synchronously rebuilds a classifier from the current sample
// and publishes it, regardless of triggers. It is the manual control
// surface (tests, admin endpoints); concurrent retrains serialize.
func (s *Service) Retrain() error { return s.retrain("manual") }

// maybeRetrain checks the triggers and retrains when one fires,
// returning the trigger's name ("" if none fired). It is the body of the
// background loop, split out so tests can drive it without the ticker.
func (s *Service) maybeRetrain() (string, error) {
	reason := s.trigger()
	if reason == "" {
		return "", nil
	}
	return reason, s.retrain(reason)
}

// trigger names the first retrain trigger currently firing. All triggers
// require at least one row ingested since the last retrain: a model
// never goes stale against data it has already seen.
func (s *Service) trigger() string {
	pending := s.ing.Seen() - s.lastTrained.Load()
	if pending <= 0 {
		return ""
	}
	if s.cfg.RetrainEvery > 0 && pending >= s.cfg.RetrainEvery {
		return "count"
	}
	if s.cfg.MaxModelAge > 0 && s.model.Age() >= s.cfg.MaxModelAge {
		return "age"
	}
	if s.cfg.DriftTolerance > 0 && s.thresholdDrifted() {
		return "drift"
	}
	return ""
}

// probeRows and probeQueries size the drift probe: the reference rows of
// its mini-KDE and the probe queries scored against them, drawn together
// from the current sample.
const (
	probeRows    = 512
	probeQueries = 256
)

// thresholdDrifted compares the live threshold against a cheap
// bootstrap-style probe of the current sample (core.ProbeThreshold).
// Each check uses a fresh derived seed so repeated probes of a drifting
// stream don't resample identical rows.
func (s *Service) thresholdDrifted() bool {
	live := s.model.Current().Threshold()
	if live <= 0 || math.IsInf(live, 0) || math.IsNaN(live) {
		return false
	}
	sample := s.ing.Sample(probeRows+probeQueries, s.cfg.Seed+s.probeSeq.Add(1))
	if sample == nil || sample.Len() < 3 {
		return false
	}
	probe, err := core.ProbeThreshold(sample, s.trainCfg, probeRows, probeQueries, s.cfg.Seed)
	if err != nil || probe <= 0 {
		return false
	}
	score := math.Abs(probe-live) / live
	s.driftScore.Store(math.Float64bits(score))
	s.driftProbes.Add(1)
	return score > s.cfg.DriftTolerance
}

// retrain rebuilds from a snapshot of the sample and publishes the
// result. The sample copy is the only moment it touches the ingest lock;
// training runs entirely off both the ingest and query paths.
func (s *Service) retrain(reason string) error {
	s.retrainMu.Lock()
	defer s.retrainMu.Unlock()

	snap, seen := s.ing.Snapshot()
	if snap == nil {
		return errEmpty
	}
	start := time.Now()
	clf, err := core.TrainStore(snap, s.trainCfg)
	if err != nil {
		return fmt.Errorf("stream: retrain: %w", err)
	}
	dur := time.Since(start)
	gen := s.model.Publish(clf)
	s.lastTrained.Store(seen)
	s.retrains.Add(1)
	s.lastReason.Store(&reason)
	s.lastRetrainNS.Store(int64(dur))
	if s.rec.Enabled() {
		s.rec.RecordSpan(telemetry.Span{
			Name:     fmt.Sprintf("retrain/gen-%d", gen),
			Duration: dur,
			Kernels:  clf.TrainStats().TrainKernels,
			Items:    int64(snap.Len()),
		})
	}
	if s.cfg.SnapshotPath != "" {
		if err := clf.SaveFile(s.cfg.SnapshotPath); err != nil {
			return err
		}
	}
	if s.cfg.OnSwap != nil {
		s.cfg.OnSwap(gen)
	}
	s.setErr(nil)
	return nil
}

func (s *Service) setErr(err error) {
	s.errMu.Lock()
	s.lastErr = err
	s.errMu.Unlock()
}

// Stats snapshots the lifecycle.
func (s *Service) Stats() Stats {
	clf, gen, born := s.model.View()
	st := Stats{
		Generation: gen,
		ModelAge:   time.Since(born),
		ModelN:     clf.N(),
		Threshold:  clf.Threshold(),
		Capacity:   s.ing.Capacity(),
		Window:     s.ing.WindowMode(),
		Shards:     1,
		Retrains:   s.retrains.Load(),

		DriftScore:          math.Float64frombits(s.driftScore.Load()),
		DriftProbes:         s.driftProbes.Load(),
		LastRetrainDuration: time.Duration(s.lastRetrainNS.Load()),
	}
	st.Ingested, st.SampleSize = s.ing.Counts()
	st.Pending = st.Ingested - s.lastTrained.Load()
	if st.Pending < 0 {
		st.Pending = 0
	}
	if r := s.lastReason.Load(); r != nil {
		st.LastRetrainReason = *r
	}
	s.errMu.Lock()
	if s.lastErr != nil {
		st.LastError = s.lastErr.Error()
	}
	s.errMu.Unlock()
	return st
}
