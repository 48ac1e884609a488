package serve

// TTL-janitor regression tests, written to run under -race: concurrent
// Start/Step/Stop churn against a full session table while the janitor
// sweeps on a hot period must neither leak goroutines nor double-evict.
// The conservation law pins the double-eviction bug shape exactly: every
// started session leaves the table by exactly one of Stop-that-found-it or
// eviction, so started == live + stopped + evicted must hold at
// quiescence — a lazy lookup eviction racing the sweeper into counting the
// same session twice breaks the equality.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTrackJanitorChurnConservesSessions(t *testing.T) {
	tr := testTracker(false)
	seq := testTrackSequences(1, 2)[0]
	ts, err := NewTrackService(tr, TrackConfig{
		MaxSessions: 8, // small enough that churn keeps the table full
		TTL:         20 * time.Millisecond,
		SweepEvery:  2 * time.Millisecond, // hot janitor: maximize sweep/lookup races
		QueueDepth:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	ctx := context.Background()
	var stopped atomic.Int64
	const workers, iters = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id, _, err := ts.Start(ctx, seq.Frames[0], seq.Boxes[0])
				if err != nil {
					// A full table (ErrSessionTableFull) is a legal outcome
					// of the churn, not a failure.
					continue
				}
				switch i % 3 {
				case 0:
					// Immediate stop.
					if ts.Stop(id) {
						stopped.Add(1)
					}
				case 1:
					// Use it, then race Stop against the sweeper.
					_, _, _ = ts.Step(ctx, id, seq.Frames[1], false)
					if ts.Stop(id) {
						stopped.Add(1)
					}
				case 2:
					// Abandon: the janitor must evict it exactly once. Poke
					// the lazy-eviction path too so it races the sweeper.
					time.Sleep(25 * time.Millisecond)
					_, _, _ = ts.Step(ctx, id, seq.Frames[1], false)
					if ts.Stop(id) {
						stopped.Add(1)
					}
				}
				// Stops of unknown IDs must be harmless no-ops.
				if ts.Stop("t-999999999") {
					t.Error("Stop of an unknown session reported true")
				}
			}
		}(w)
	}
	wg.Wait()

	// Let the janitor clear whatever was abandoned, then check conservation.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ts.mu.RLock()
		live := int64(len(ts.sessions))
		ts.mu.RUnlock()
		started, evicted := ts.started.Load(), ts.evicted.Load()
		if started == live+stopped.Load()+evicted {
			if live == 0 || time.Now().After(deadline) {
				break
			}
		} else if time.Now().After(deadline) {
			t.Fatalf("session conservation violated: started %d != live %d + stopped %d + evicted %d",
				started, live, stopped.Load(), evicted)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts.mu.RLock()
	live := int64(len(ts.sessions))
	ts.mu.RUnlock()
	started, evicted := ts.started.Load(), ts.evicted.Load()
	if started != live+stopped.Load()+evicted {
		t.Fatalf("session conservation violated at quiescence: started %d != live %d + stopped %d + evicted %d",
			started, live, stopped.Load(), evicted)
	}
	if started == 0 {
		t.Fatal("churn never started a session — the test exercised nothing")
	}
}

// TestTrackJanitorShutdownLeaksNoGoroutines counts goroutines once the
// tracker has run a forward: the first forward of the process starts the GEMM
// worker pool, which lives as long as the process, so a count taken before
// one depends on which tests ran first.
func TestTrackJanitorShutdownLeaksNoGoroutines(t *testing.T) {
	tr := testTracker(false)
	seq := testTrackSequences(1, 2)[0]
	if _, err := tr.ExemplarFeaturesFor(seq.Frames[0], seq.Boxes[0]); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		ts, err := NewTrackService(tr, TrackConfig{
			MaxSessions: 4,
			TTL:         10 * time.Millisecond,
			SweepEvery:  2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ts.Start(context.Background(), seq.Frames[0], seq.Boxes[0]); err != nil {
			t.Fatal(err)
		}
		// Close with a live session and a hot janitor: the sweeper and the
		// pipeline goroutines must all exit.
		ts.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d after shutdown, started with %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
