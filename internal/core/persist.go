package core

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"tkdc/internal/points"
)

// modelSnapshot is the serialized form of a trained classifier. The
// spatial index and grid are rebuilt deterministically from the data on
// load (they are pure functions of data + config), so only the training
// outcome — the threshold and its bounds — needs to persist alongside the
// data. Loading therefore skips the expensive phases of Train entirely.
//
// Format v3 records the tag of the start the model was trained with and
// the near-first start's parameters alongside the v2 layout, so a loaded
// replica runs that start even if the dimension rule changes between
// releases. Format v2 stores the dataset as one contiguous row-major
// buffer (Flat + Dim), matching the in-memory points.Store layout;
// format v1 stored a slice of rows (Data). Save always writes v3; Load
// decodes all three. Gob matches fields by name, so one struct covers
// every version.
type modelSnapshot struct {
	Version   int
	Config    Config
	Data      [][]float64 // v1 layout; nil in v2+ snapshots
	Flat      []float64   // v2+ layout: row-major buffer …
	Dim       int         // … with this row width
	Threshold float64
	TLow      float64
	THigh     float64
	Train     TrainStats
	// Backend is the tag of the start the model served with (v3). Load
	// serves with it; v1 and v2 predate it and load with the start their
	// dimension picks.
	Backend string
	// Sampler records the near-first start's near cut at save time
	// (v3), with the two far-field sample sizes the start no longer
	// uses. They are package constants, persisted so an artifact states
	// what it ran with.
	Sampler samplerParams
}

// samplerParams is the persisted tuning of the near-first start
// (BackendSampling). Load ignores it.
type samplerParams struct {
	NearCut                float64
	MinSamples, MaxSamples int
}

// modelVersion identifies the current snapshot format: 3 = flat buffer
// plus backend tag.
const modelVersion = 3

// Snapshot files and replicated snapshot bytes carry an integrity frame
// around the gob payload so a torn write or a corrupted transfer fails
// loudly at load time instead of deserializing garbage:
//
//	magic   [4]byte  "TKDC"
//	version [1]byte  frame format (1)
//	sha256  [32]byte SHA-256 of the gob payload that follows
//	payload          gob(modelSnapshot)
//
// The frame is what SaveFile writes and what the replication fleet ships
// over /snapshot. Load accepts both framed and bare-gob streams (every
// pre-frame snapshot, and Save's output, is bare gob): gob type
// descriptors for modelSnapshot exceed 127 bytes, so a legitimate bare
// stream can never begin with the magic's first byte 'T' (0x54).
const (
	frameMagic   = "TKDC"
	frameVersion = 1
	frameHdrLen  = len(frameMagic) + 1 + sha256.Size
)

// EncodeSnapshot serializes the classifier in the framed on-disk/wire
// format: the integrity header followed by the gob payload. The returned
// buffer is freshly allocated and safe to retain; checksum is the
// SHA-256 of the whole framed encoding (what `sha256sum model.tkdc`
// reports), which the replication layer uses as its content address.
func (c *Classifier) EncodeSnapshot() (data []byte, checksum [sha256.Size]byte, err error) {
	var payload bytes.Buffer
	if err := c.Save(&payload); err != nil {
		return nil, checksum, err
	}
	sum := sha256.Sum256(payload.Bytes())
	buf := make([]byte, 0, frameHdrLen+payload.Len())
	buf = append(buf, frameMagic...)
	buf = append(buf, frameVersion)
	buf = append(buf, sum[:]...)
	buf = append(buf, payload.Bytes()...)
	return buf, sha256.Sum256(buf), nil
}

// Save serializes the trained classifier (including its training data —
// a KDE *is* its data) so a later Load can serve queries without
// retraining. The format is Go-specific (encoding/gob) and versioned;
// the dataset is written as the flat row-major buffer of format v2.
func (c *Classifier) Save(w io.Writer) error {
	cfg := c.cfg
	// The recorder is live runtime wiring, not model state: drop it so
	// gob never sees a non-nil interface (which it cannot encode without
	// registration). Load-ed models start with telemetry off; reattach
	// with SetRecorder.
	cfg.Recorder = nil
	// Phase durations are wall-clock readings, not model state: two
	// trainings of the same store, config and seed must encode to the
	// same bytes (and so the same content address). Zero them in a
	// copy; the live TrainStats keeps its timings.
	train := c.train
	train.Phases = slices.Clone(train.Phases)
	for i := range train.Phases {
		train.Phases[i].Duration = 0
	}
	snap := modelSnapshot{
		Version:   modelVersion,
		Config:    cfg,
		Flat:      c.data.Data,
		Dim:       c.data.Dim,
		Threshold: c.threshold,
		TLow:      c.tLow,
		THigh:     c.tHigh,
		Train:     train,
		Backend:   c.backend,
		// The sample sizes are those of the sampled far field the
		// near-first start replaced. Save keeps writing them, so v3's
		// layout and a model's bytes stay as they were.
		Sampler: samplerParams{
			NearCut:    nearCut,
			MinSamples: 256,
			MaxSamples: 4096,
		},
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	return nil
}

// SaveFile atomically persists the classifier to path: the snapshot is
// written to path+".tmp", fsynced, renamed over path, and the containing
// directory fsynced, so a crash mid-save can never leave a truncated or
// half-written model file where a good one used to be. The bytes carry
// the integrity frame (magic + payload SHA-256), so a file torn by
// anything the rename dance cannot defend against — a failing disk, a
// partial copy between machines — is rejected loudly by Load instead of
// deserializing garbage. This is the helper behind the CLI's -save and
// the streaming lifecycle's per-swap snapshots; concurrent SaveFile
// calls on the same path are not safe (they share the temp name).
func (c *Classifier) SaveFile(path string) error {
	data, _, err := c.EncodeSnapshot()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(fmt.Errorf("core: save model: %w", err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("core: save model: sync: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: save model: close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: save model: %w", err)
	}
	// Fsync the directory so the rename itself survives a crash. Best
	// effort: some filesystems reject directory syncs.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// Load reconstructs a classifier saved with Save or SaveFile: the k-d
// tree and grid are rebuilt from the stored data, and the persisted
// threshold is used directly, skipping the bootstrap and the
// full-dataset density pass. Framed streams (SaveFile, /snapshot) have
// their payload verified against the recorded SHA-256 before any
// decoding — a truncated or bit-flipped snapshot fails with a checksum
// error, never a half-built model. All snapshot formats are accepted:
// v3 (flat buffer + backend tag), v2 (flat buffer), and the legacy v1
// (slice of rows), which is converted to flat storage on the way in. A
// v3 snapshot's recorded tag pins the loaded model's start — a change of
// the dimension rule between releases cannot silently flip a serving
// replica — and v1 and v2 snapshots load with the start their dimension
// picks. An unknown tag fails the load.
func Load(r io.Reader) (*Classifier, error) {
	payload, err := verifyFrame(r)
	if err != nil {
		return nil, err
	}
	var snap modelSnapshot
	if err := gob.NewDecoder(payload).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	var store *points.Store
	switch snap.Version {
	case 1:
		if len(snap.Data) == 0 {
			return nil, errors.New("core: model contains no data")
		}
		s, err := points.FromRows(snap.Data)
		if err != nil {
			return nil, fmt.Errorf("core: load model: %w", err)
		}
		store = s
	case 2, 3:
		if len(snap.Flat) == 0 {
			return nil, errors.New("core: model contains no data")
		}
		s, err := points.FromFlat(snap.Flat, snap.Dim)
		if err != nil {
			return nil, fmt.Errorf("core: load model: %w", err)
		}
		store = s
	default:
		return nil, fmt.Errorf("core: unsupported model version %d (want 1 to %d)", snap.Version, modelVersion)
	}
	if math.IsNaN(snap.Threshold) || math.IsInf(snap.Threshold, 0) {
		return nil, fmt.Errorf("core: model threshold %v is not finite", snap.Threshold)
	}
	cfg := snap.Config.normalized()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := cmp.Or(snap.Backend, resolveBackend(store.Dim))
	if start != BackendTree && start != BackendSampling {
		return nil, fmt.Errorf("core: unknown backend %q (valid: %s, %s)", start, BackendTree, BackendSampling)
	}
	if err := store.CheckFinite(); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}

	// The config keeps what it recorded, so the model re-encodes to the
	// bytes it was loaded from.
	c, err := assemble(store, cfg, start)
	if err != nil {
		return nil, err
	}
	c.tLow = snap.TLow
	c.tHigh = snap.THigh
	c.threshold = snap.Threshold
	c.train = snap.Train
	return c, nil
}

// verifyFrame sniffs r for the integrity frame. Framed input has its
// payload read whole and checked against the header SHA-256; the
// returned reader then yields the verified payload. Bare-gob input
// (legacy snapshots, Save output) is passed through untouched, with the
// sniffed prefix stitched back on.
func verifyFrame(r io.Reader) (io.Reader, error) {
	head := make([]byte, len(frameMagic))
	n, err := io.ReadFull(r, head)
	if err != nil {
		// Too short to even carry the magic: hand the bytes to gob, whose
		// error ("EOF", "unexpected EOF") names the real problem.
		return io.MultiReader(bytes.NewReader(head[:n]), r), nil
	}
	if string(head) != frameMagic {
		return io.MultiReader(bytes.NewReader(head), r), nil
	}
	rest := make([]byte, 1+sha256.Size)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, fmt.Errorf("core: load model: truncated snapshot frame: %w", err)
	}
	if rest[0] != frameVersion {
		return nil, fmt.Errorf("core: load model: unsupported snapshot frame version %d (want %d)", rest[0], frameVersion)
	}
	want := rest[1:]
	payload, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: load model: read snapshot payload: %w", err)
	}
	got := sha256.Sum256(payload)
	if !bytes.Equal(got[:], want) {
		return nil, fmt.Errorf("core: load model: snapshot checksum mismatch (want %s, got %s): torn or corrupted snapshot",
			hex.EncodeToString(want), hex.EncodeToString(got[:]))
	}
	return bytes.NewReader(payload), nil
}

// LoadFile opens and loads a snapshot written by SaveFile, verifying the
// recorded SHA-256 before deserializing. It is the file-path counterpart
// of Load and the loud-failure guard for replicas booting off local
// snapshots: a torn file surfaces as a checksum error naming the path.
func LoadFile(path string) (*Classifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	defer f.Close()
	c, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return c, nil
}
