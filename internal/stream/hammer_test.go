package stream

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tkdc/internal/core"
	"tkdc/internal/telemetry"
)

// TestHotSwapHammer is the zero-downtime acceptance check: readers call
// Classify/Score/DensityBounds in tight loops while generations swap
// underneath them. Run under -race it also proves the handle publishes
// safely. Each reader asserts generation numbers are monotone and every
// View is internally coherent (classifier paired with its own
// generation's threshold).
func TestHotSwapHammer(t *testing.T) {
	clfA := trainSmall(t, gauss2D(400, 1, 1))
	clfB := trainSmall(t, gauss2D(400, 2, 1.5))
	model := NewModel(clfA)

	probes := gauss2D(32, 3, 2)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	fail := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
	}

	const readers = 8
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastGen uint64
			for i := 0; !stop.Load(); i++ {
				q := probes[(r+i)%len(probes)]
				switch i % 3 {
				case 0:
					if _, err := model.Classify(q); err != nil {
						fail("Classify: " + err.Error())
						return
					}
				case 1:
					res, err := model.Score(q)
					if err != nil {
						fail("Score: " + err.Error())
						return
					}
					if res.Lower > res.Upper {
						fail("torn score: lower > upper")
						return
					}
				case 2:
					if _, _, err := model.DensityBounds(q, 0.1); err != nil {
						fail("DensityBounds: " + err.Error())
						return
					}
				}
				clf, gen, born := model.View()
				if gen < lastGen {
					fail("generation went backwards")
					return
				}
				lastGen = gen
				if clf == nil || born.IsZero() {
					fail("torn view: nil classifier or zero birth time")
					return
				}
			}
		}(r)
	}

	// Writer: swap between two prebuilt classifiers as fast as possible.
	const swaps = 2000
	var lastPub uint64
	for i := 0; i < swaps; i++ {
		next := clfA
		if i%2 == 0 {
			next = clfB
		}
		gen := model.Publish(next)
		if gen <= lastPub {
			t.Fatalf("publish generation %d not monotone after %d", gen, lastPub)
		}
		lastPub = gen
	}
	time.Sleep(10 * time.Millisecond) // let readers overlap the final state
	stop.Store(true)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if got := model.Generation(); got != swaps+1 {
		t.Fatalf("final generation = %d, want %d", got, swaps+1)
	}
}

// TestServiceHammer drives the whole lifecycle under -race: concurrent
// ingest batches and queries while the background retrainer swaps real
// retrained generations.
func TestServiceHammer(t *testing.T) {
	initial := trainSmall(t, gauss2D(400, 1, 1))
	svc, err := NewService(initial, Config{
		Capacity:      800,
		Window:        true,
		RetrainEvery:  150,
		CheckInterval: time.Millisecond,
		Train:         testConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	model := svc.Model()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			probes := gauss2D(16, int64(100+r), 2)
			for i := 0; !stop.Load(); i++ {
				if _, err := model.Score(probes[i%len(probes)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	for b := 0; b < 12; b++ {
		if _, err := svc.Ingest(gauss2D(100, int64(200+b), 1)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	deadline := time.Now().Add(10 * time.Second)
	for model.Generation() < 3 {
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("retrainer advanced only to generation %d: %+v", model.Generation(), svc.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.LastError != "" {
		t.Fatalf("background retrains errored: %s", st.LastError)
	}
	if st.Generation < 3 || st.Retrains < 2 {
		t.Fatalf("lifecycle stats = %+v, want ≥ 2 retrains", st)
	}
}

// TestFlightRecorderHammer drives the flight recorder through the full
// streaming lifecycle under -race: readers trace every query through the
// live Model handle while retrains hot-swap generations underneath, and
// a snapshot reader serves /debug/queries-style reads throughout. Every
// generation shares the registry (and so the recorder), so traces keep
// flowing across swaps.
func TestFlightRecorderHammer(t *testing.T) {
	reg := telemetry.NewRegistry()
	flight := telemetry.NewFlightRecorder(telemetry.FlightOptions{K: 16})
	reg.AttachFlightRecorder(flight)

	cfg := testConfig()
	cfg.Recorder = reg
	initial, err := core.Train(gauss2D(400, 1, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(initial, Config{Capacity: 800, Train: cfg, Recorder: reg})
	if err != nil {
		t.Fatal(err)
	}
	model := svc.Model()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			probes := gauss2D(16, int64(100+r), 2)
			for i := 0; !stop.Load(); i++ {
				if _, err := model.Score(probes[i%len(probes)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() { // concurrent snapshot reader
		defer wg.Done()
		for !stop.Load() {
			snap := flight.Snapshot()
			if len(snap.Slowest) > snap.K || len(snap.Recent) > snap.K {
				t.Errorf("snapshot overflows K: %d slowest, %d recent", len(snap.Slowest), len(snap.Recent))
				return
			}
			for _, tr := range snap.Recent {
				if tr.Kind == "" || tr.Latency < 0 {
					t.Errorf("malformed retained trace: %+v", tr)
					return
				}
			}
		}
	}()

	// Writer: back-to-back retrain swaps with fresh rows in between.
	for i := 0; i < 6; i++ {
		if _, err := svc.Ingest(gauss2D(100, int64(200+i), 1)); err != nil {
			t.Fatal(err)
		}
		if err := svc.Retrain(); err != nil {
			t.Fatal(err)
		}
	}
	// At GOMAXPROCS=1 the six retrains can finish before the scheduler
	// ever runs a reader; yield until at least one query has traced so
	// the assertions below exercise a real interleaving.
	for deadline := time.Now().Add(10 * time.Second); flight.Snapshot().Traced == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	snap := flight.Snapshot()
	if snap.Traced == 0 {
		t.Fatal("no traces filed across the hammer run")
	}
	if model.Generation() != 7 {
		t.Fatalf("generation = %d, want 7 after 6 retrains", model.Generation())
	}
}

// TestStatsHammer reads Stats while writers ingest 1-row batches into a
// sample still in its fill phase: rows held and rows seen are read in
// one critical section, so no Stats call may report a SampleSize above
// its Ingested.
func TestStatsHammer(t *testing.T) {
	svc, err := NewService(trainSmall(t, gauss2D(400, 1, 1)), Config{Capacity: 1 << 16, Train: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	const writers, rows = 4, 4000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, row := range gauss2D(rows, int64(w), 1) {
				if _, err := svc.Ingest([][]float64{row}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for calls := 0; ; calls++ {
		st := svc.Stats()
		if int64(st.SampleSize) > st.Ingested {
			t.Fatalf("Stats call %d: SampleSize %d exceeds Ingested %d", calls, st.SampleSize, st.Ingested)
		}
		select {
		case <-done:
			if st := svc.Stats(); st.Ingested != writers*rows || st.SampleSize != writers*rows {
				t.Fatalf("final Stats: Ingested %d, SampleSize %d, want %d each", st.Ingested, st.SampleSize, writers*rows)
			}
			return
		default:
		}
	}
}
