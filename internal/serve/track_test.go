package serve

// Tracking-service tests: session lifecycle over HTTP, the 64-concurrent-
// session byte-identity acceptance check against the offline tracker loop,
// TTL eviction under a bounded session table, error-status mapping, and
// the histogram boundary agreement the metrics fix pins.

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/tensor"
	"skynet/internal/track"
)

// testTracker builds an untrained (deterministically seeded) SkyNet
// tracker at test scale; service behavior does not depend on tracking
// quality.
func testTracker(withMask bool) *track.Tracker {
	rng := rand.New(rand.NewSource(1))
	bcfg := backbone.Config{Width: 0.125, InC: 3, HeadChannels: 0, ReLU6: true}
	cfg := track.DefaultConfig()
	cfg.WithMask = withMask
	// SkyNet A headless at width 0.125 ends with 64-channel features.
	return track.New(backbone.SkyNetA(rng, bcfg), 64, cfg)
}

func testTrackSequences(n, length int) []dataset.Sequence {
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H = 96, 96
	cfg.Clutter = 1
	gen := dataset.NewGenerator(cfg)
	sc := dataset.DefaultSequenceConfig()
	sc.Length = length
	return gen.Sequences(n, sc)
}

func newTestTrackService(t *testing.T, tr *track.Tracker, cfg TrackConfig) *TrackService {
	t.Helper()
	ts, err := NewTrackService(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ts.Close)
	return ts
}

func TestTrackSessionLifecycle(t *testing.T) {
	tr := testTracker(false)
	ts := newTestTrackService(t, tr, TrackConfig{})
	seq := testTrackSequences(1, 4)[0]
	ctx := context.Background()

	id, bytes, err := ts.Start(ctx, seq.Frames[0], seq.Boxes[0])
	if err != nil {
		t.Fatal(err)
	}
	if id == "" || bytes <= sessionOverheadBytes {
		t.Fatalf("session %q bytes %d: want an ID and a template-sized footprint", id, bytes)
	}
	for f := 1; f < seq.Len(); f++ {
		box, mask, err := ts.Step(ctx, id, seq.Frames[f], false)
		if err != nil {
			t.Fatalf("step %d: %v", f, err)
		}
		if mask != nil {
			t.Fatal("unrequested mask returned")
		}
		if box.W <= 0 || box.H <= 0 {
			t.Fatalf("step %d: degenerate box %+v", f, box)
		}
	}
	if !ts.Stop(id) {
		t.Fatal("Stop on a live session reported false")
	}
	if _, _, err := ts.Step(ctx, id, seq.Frames[1], false); err != ErrNoSession {
		t.Fatalf("step after stop: %v, want ErrNoSession", err)
	}
	m := ts.Metrics()
	if m.Started != 1 || m.Steps != int64(seq.Len()-1) || m.Sessions != 0 {
		t.Fatalf("metrics %+v: want 1 started, %d steps, 0 live", m, seq.Len()-1)
	}
}

// TestTrackConcurrentSessionsByteIdentical is the acceptance check: 64
// concurrent sessions interleaving through the shared inference stage must
// produce boxes byte-identical to the offline Tracker loop on the same
// sequences — the session abstraction may not leak state across streams.
func TestTrackConcurrentSessionsByteIdentical(t *testing.T) {
	tr := testTracker(false)
	seqs := testTrackSequences(4, 4)

	// Offline reference first (the tracker is single-threaded by design).
	want := make([][]detect.Box, len(seqs))
	for i, seq := range seqs {
		zf, err := tr.ExemplarFeaturesFor(seq.Frames[0], seq.Boxes[0])
		if err != nil {
			t.Fatal(err)
		}
		box := seq.Boxes[0]
		for f := 1; f < seq.Len(); f++ {
			box, err = tr.StepBoxE(zf, seq.Frames[f], box)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], box)
		}
	}

	// Raised request timeout: 256 forwards share one inference worker, and
	// under -race each is an order of magnitude slower.
	ts := newTestTrackService(t, tr, TrackConfig{QueueDepth: 256,
		RequestTimeout: 2 * time.Minute})
	hs := httptest.NewServer(ts.Handler())
	defer hs.Close()

	frames := make([][]*tensor.Tensor, len(seqs))
	boxes := make([]detect.Box, len(seqs))
	for i, seq := range seqs {
		frames[i] = seq.Frames
		boxes[i] = seq.Boxes[0]
	}
	lg := &TrackLoadGen{URL: hs.URL, Sessions: 64, Frames: frames, Boxes: boxes}
	rep, err := lg.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if errs := rep.Errors(); len(errs) != 0 {
		t.Fatalf("%d sessions failed; first: %+v", len(errs), errs[0])
	}
	if rep.Steps != 64*(seqs[0].Len()-1) {
		t.Fatalf("%d steps, want %d", rep.Steps, 64*(seqs[0].Len()-1))
	}
	for s, res := range rep.Sessions {
		ref := want[s%len(seqs)]
		for f, got := range res.Boxes {
			if got != ref[f] {
				t.Fatalf("session %d frame %d: box %+v, offline %+v", s, f, got, ref[f])
			}
		}
	}
	// Every session reported a measured footprint at start (the loadgen
	// stops its session afterwards, so none remain live for /metrics).
	for s, res := range rep.Sessions {
		if res.BytesPerSession <= sessionOverheadBytes {
			t.Fatalf("session %d reported %d bytes, want a template-sized footprint", s, res.BytesPerSession)
		}
	}
	if m := ts.Metrics(); m.Started != 64 || m.Sessions != 0 {
		t.Fatalf("metrics %+v: want 64 started, 0 live after stops", m)
	}
}

// TestTrackMaskSessionMatchesOffline pins the mask path end to end: the
// wire mask equals PeakMaskE on the same state bit for bit.
func TestTrackMaskSessionMatchesOffline(t *testing.T) {
	tr := testTracker(true)
	seq := testTrackSequences(1, 3)[0]

	zf, err := tr.ExemplarFeaturesFor(seq.Frames[0], seq.Boxes[0])
	if err != nil {
		t.Fatal(err)
	}
	wantMask, err := tr.PeakMaskE(zf, seq.Frames[1], seq.Boxes[0])
	if err != nil {
		t.Fatal(err)
	}

	ts := newTestTrackService(t, tr, TrackConfig{})
	hs := httptest.NewServer(ts.Handler())
	defer hs.Close()

	lg := &TrackLoadGen{URL: hs.URL, Sessions: 1, Mask: true,
		Frames: [][]*tensor.Tensor{seq.Frames[:2]}, Boxes: []detect.Box{seq.Boxes[0]}}
	rep, err := lg.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if errs := rep.Errors(); len(errs) != 0 {
		t.Fatalf("session failed: %+v", errs[0])
	}
	got := rep.Sessions[0].Masks[0]
	if got == nil {
		t.Fatal("no mask returned")
	}
	gt, err := got.Tensor()
	if err != nil {
		t.Fatal(err)
	}
	if len(gt.Data) != len(wantMask.Data) {
		t.Fatalf("mask size %d, want %d", len(gt.Data), len(wantMask.Data))
	}
	for i := range wantMask.Data {
		if math.Float32bits(gt.Data[i]) != math.Float32bits(wantMask.Data[i]) {
			t.Fatalf("mask differs from offline PeakMask at %d", i)
		}
	}
}

// TestTrackTTLEvictionUnderBoundedTable pins the bounded-table contract: a
// full table sheds new sessions, idle sessions expire after the TTL, and
// expiry frees capacity.
func TestTrackTTLEvictionUnderBoundedTable(t *testing.T) {
	tr := testTracker(false)
	ts := newTestTrackService(t, tr, TrackConfig{
		MaxSessions: 2,
		TTL:         80 * time.Millisecond,
		SweepEvery:  20 * time.Millisecond,
	})
	seq := testTrackSequences(1, 3)[0]
	ctx := context.Background()

	id1, _, err := ts.Start(ctx, seq.Frames[0], seq.Boxes[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ts.Start(ctx, seq.Frames[0], seq.Boxes[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ts.Start(ctx, seq.Frames[0], seq.Boxes[0]); err != ErrSessionTableFull {
		t.Fatalf("third session on a 2-bound table: %v, want ErrSessionTableFull", err)
	}

	// After the TTL both sessions are idle-expired: the janitor (or the
	// lazy pre-start sweep) must free capacity for a new session.
	deadline := time.Now().Add(2 * time.Second)
	for {
		time.Sleep(25 * time.Millisecond)
		if _, _, err = ts.Start(ctx, seq.Frames[0], seq.Boxes[0]); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("table never freed after TTL: %v", err)
		}
	}
	if _, _, err := ts.Step(ctx, id1, seq.Frames[1], false); err != ErrNoSession {
		t.Fatalf("step on evicted session: %v, want ErrNoSession", err)
	}
	if m := ts.Metrics(); m.Evicted == 0 || m.Rejected == 0 {
		t.Fatalf("metrics %+v: want evictions and rejections recorded", m)
	}
}

// TestTrackHTTPErrorMapping pins the status codes: malformed requests 400,
// unknown sessions 404, and the worker survives all of them.
func TestTrackHTTPErrorMapping(t *testing.T) {
	tr := testTracker(false)
	ts := newTestTrackService(t, tr, TrackConfig{})
	hs := httptest.NewServer(ts.Handler())
	defer hs.Close()
	seq := testTrackSequences(1, 3)[0]

	post := func(path string, payload any) (int, []byte) {
		t.Helper()
		status, body := 0, []byte(nil)
		var resp map[string]any
		st, err := postJSON(context.Background(), http.DefaultClient, hs.URL+path, payload, &resp)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		status = st
		body, _ = json.Marshal(resp)
		return status, body
	}

	// Malformed tensor shape → 400.
	if st, _ := post("/track/start", TrackStartRequest{Shape: []int{2, 2}, Data: []float32{1, 2, 3, 4},
		Box: seq.Boxes[0]}); st != http.StatusBadRequest {
		t.Fatalf("bad shape start: status %d, want 400", st)
	}
	// Degenerate box → 400 (the tracker rejects it, worker survives).
	frame := seq.Frames[0]
	if st, _ := post("/track/start", TrackStartRequest{Shape: frame.Shape(), Data: frame.Data,
		Box: detect.Box{CX: 0.5, CY: 0.5, W: 0, H: 0}}); st != http.StatusBadRequest {
		t.Fatalf("degenerate box start: status %d, want 400", st)
	}
	// Unknown session → 404.
	if st, _ := post("/track/step", TrackStepRequest{Session: "t-999", Shape: frame.Shape(),
		Data: frame.Data}); st != http.StatusNotFound {
		t.Fatalf("unknown session step: status %d, want 404", st)
	}
	if st, _ := post("/track/stop", TrackStopRequest{Session: "t-999"}); st != http.StatusNotFound {
		t.Fatalf("unknown session stop: status %d, want 404", st)
	}
	// The service still works after every failure.
	var sr TrackStartResponse
	st, err := postJSON(context.Background(), http.DefaultClient, hs.URL+"/track/start",
		TrackStartRequest{Shape: frame.Shape(), Data: frame.Data, Box: seq.Boxes[0]}, &sr)
	if err != nil || st != http.StatusOK || sr.Session == "" {
		t.Fatalf("start after failures: status %d err %v resp %+v", st, err, sr)
	}
	if m := ts.Metrics(); m.Failed == 0 {
		t.Fatalf("metrics %+v: want failures counted", m)
	}
}

// TestTrackAttachedToServer pins co-hosting: the detection front door
// mounts the /track routes and folds the tracking snapshot into /metrics
// without disturbing the headline detection batching numbers.
func TestTrackAttachedToServer(t *testing.T) {
	srv := newSinglePool(t, &stubModel{}, Config{})
	tr := testTracker(false)
	ts := newTestTrackService(t, tr, TrackConfig{})
	srv.Attach(ts)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	seq := testTrackSequences(1, 3)[0]

	var sr TrackStartResponse
	st, err := postJSON(context.Background(), http.DefaultClient, hs.URL+"/track/start",
		TrackStartRequest{Shape: seq.Frames[0].Shape(), Data: seq.Frames[0].Data, Box: seq.Boxes[0]}, &sr)
	if err != nil || st != http.StatusOK {
		t.Fatalf("start via attached server: status %d err %v", st, err)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m PoolMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Track == nil || m.Track.Started != 1 || m.Track.Sessions != 1 {
		t.Fatalf("attached metrics %+v: want the tracking snapshot folded in", m.Track)
	}
	// One stage, and no batch formation: every request is its own batch.
	if st := m.Track.Stages; len(st) != 1 || st[0].Items != 1 || st[0].Batches != st[0].Items {
		t.Fatalf("tracking stages %+v, want one inference stage with batches == items == 1", st)
	}
	if rm := m.ReplicaMetrics[0]; rm.Batches != 0 || rm.MeanBatchSize != 0 {
		t.Fatalf("a tracking forward showed up in the detection batching numbers: %+v", rm)
	}
}

// TestTrackDrainRefusesNewWork pins graceful shutdown semantics.
func TestTrackDrainRefusesNewWork(t *testing.T) {
	tr := testTracker(false)
	ts, err := NewTrackService(tr, TrackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	seq := testTrackSequences(1, 3)[0]
	id, _, err := ts.Start(context.Background(), seq.Frames[0], seq.Boxes[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ts.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, _, err := ts.Step(context.Background(), id, seq.Frames[1], false); err != ErrDraining {
		t.Fatalf("step after drain: %v, want ErrDraining", err)
	}
	if _, _, err := ts.Start(context.Background(), seq.Frames[0], seq.Boxes[0]); err != ErrDraining {
		t.Fatalf("start after drain: %v, want ErrDraining", err)
	}
}

// TestTrackStepsSerializePerSession pins the per-session ordering
// guarantee: concurrent steps on one session are serialized by its lock,
// so every step observes the previous step's box and the final box equals
// the sequential result.
func TestTrackStepsSerializePerSession(t *testing.T) {
	tr := testTracker(false)
	seq := testTrackSequences(1, 6)[0]

	zf, err := tr.ExemplarFeaturesFor(seq.Frames[0], seq.Boxes[0])
	if err != nil {
		t.Fatal(err)
	}
	// The service steps the SAME frame 5 times; the sequential reference
	// does the same, so any lost update or reorder shows in the final box.
	ref := seq.Boxes[0]
	for i := 0; i < 5; i++ {
		ref, err = tr.StepBoxE(zf, seq.Frames[1], ref)
		if err != nil {
			t.Fatal(err)
		}
	}

	ts := newTestTrackService(t, tr, TrackConfig{})
	ctx := context.Background()
	id, _, err := ts.Start(ctx, seq.Frames[0], seq.Boxes[0])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var last detect.Box
	var lastMu sync.Mutex
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			box, _, err := ts.Step(ctx, id, seq.Frames[1], false)
			if err != nil {
				t.Errorf("concurrent step: %v", err)
				return
			}
			lastMu.Lock()
			last = box
			lastMu.Unlock()
		}()
	}
	wg.Wait()
	// The last-completing step returned some intermediate box; the
	// session's final box must equal the sequential fixed point.
	final, _, err := ts.Step(ctx, id, seq.Frames[1], false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.StepBoxE(zf, seq.Frames[1], ref)
	if err != nil {
		t.Fatal(err)
	}
	if final != want {
		t.Fatalf("final box %+v, sequential reference %+v (last concurrent %+v)", final, want, last)
	}
}

// TestHistogramBoundaryAgreement pins the satellite fix: observe and
// bucketUpper share one bounds table, so an observation exactly at a bound
// lands in the bucket whose reported upper bound is above it — a reported
// quantile can never undercut an observed latency.
func TestHistogramBoundaryAgreement(t *testing.T) {
	for i := 0; i < histBuckets-1; i++ {
		bound := histBounds[i]
		h := NewHistogram()
		h.Observe(bound) // exactly at the bound: belongs to bucket i+1
		if got := h.counts[i].Load(); got != 0 {
			t.Fatalf("observation at bound %d landed below it", i)
		}
		if q := h.Quantile(1.0); q < bound {
			t.Fatalf("bucket %d: p100 %v < observed %v", i, q, bound)
		}
		h2 := NewHistogram()
		h2.Observe(bound - 1) // one nanosecond below: bucket i or lower
		if q := h2.Quantile(1.0); q < bound-1 {
			t.Fatalf("bucket %d: p100 %v < observed %v", i, q, bound-1)
		}
	}
	// The table is exactly what bucketUpper reports.
	for i := 0; i < histBuckets; i++ {
		if bucketUpper(i) != histBounds[i] {
			t.Fatalf("bucketUpper(%d) disagrees with the table", i)
		}
	}
	// Overflow: far beyond the last bound still counts, in the last bucket.
	h := NewHistogram()
	h.Observe(histBounds[histBuckets-1] * 10)
	if h.counts[histBuckets-1].Load() != 1 {
		t.Fatal("overflow observation not in the last bucket")
	}
}
