package serve

// Tracking-service tests: session lifecycle over HTTP, the 64-concurrent-
// session byte-identity acceptance check against the offline tracker loop,
// TTL eviction under a bounded session table, error-status mapping, and
// the histogram boundary agreement the metrics fix pins.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/pipeline"
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

	// Session s tracks sequence s mod 4: start on frame 0, one step per later
	// frame, then stop.
	h := ts.Handler()
	const sessions = 64
	got := make([][]detect.Box, sessions)
	footprint := make([]int64, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			seq := seqs[s%len(seqs)]
			body, err := json.Marshal(TrackStartRequest{Shape: seq.Frames[0].Shape(), Data: seq.Frames[0].Data, Box: seq.Boxes[0]})
			if err != nil {
				t.Error(err)
				return
			}
			rec := post(h, "/track/start", body)
			var sr TrackStartResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &sr); rec.Code != http.StatusOK || err != nil {
				t.Errorf("session %d start: status %d %q", s, rec.Code, rec.Body)
				return
			}
			footprint[s] = sr.BytesPerSession
			for _, frame := range seq.Frames[1:] {
				if body, err = json.Marshal(TrackStepRequest{Session: sr.Session, Shape: frame.Shape(), Data: frame.Data}); err != nil {
					t.Error(err)
					return
				}
				rec = post(h, "/track/step", body)
				var sp TrackStepResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &sp); rec.Code != http.StatusOK || err != nil {
					t.Errorf("session %d step: status %d %q", s, rec.Code, rec.Body)
					return
				}
				got[s] = append(got[s], sp.Box)
			}
			if body, err = json.Marshal(TrackStopRequest{Session: sr.Session}); err != nil {
				t.Error(err)
				return
			}
			if rec = post(h, "/track/stop", body); rec.Code != http.StatusOK {
				t.Errorf("session %d stop: status %d %q", s, rec.Code, rec.Body)
			}
		}(s)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for s, boxes := range got {
		ref := want[s%len(seqs)]
		if len(boxes) != len(ref) {
			t.Fatalf("session %d: %d steps, want %d", s, len(boxes), len(ref))
		}
		for f, box := range boxes {
			if box != ref[f] {
				t.Fatalf("session %d frame %d: box %+v, offline %+v", s, f, box, ref[f])
			}
		}
	}
	// Every session reported a measured footprint at start (each stopped its
	// session afterwards, so none remain live for /metrics).
	for s, bytes := range footprint {
		if bytes <= sessionOverheadBytes {
			t.Fatalf("session %d reported %d bytes, want a template-sized footprint", s, bytes)
		}
	}
	if m := ts.Metrics(); m.Started != 64 || m.Sessions != 0 {
		t.Fatalf("metrics %+v: want 64 started, 0 live after stops", m)
	}
}

// TestTrackMaskedStepRunsFrontHalfOnce: a masked step costs an unmasked step
// plus the mask head — the search crop, backbone, cross-correlation and
// classification head run once, not once for the box and again for the mask —
// and answers the unmasked step's box and StepE's patch, bit for bit.
func TestTrackMaskedStepRunsFrontHalfOnce(t *testing.T) {
	tr := testTracker(true)
	seq := testTrackSequences(1, 2)[0]
	frame, box := seq.Frames[1], seq.Boxes[0]
	zf, err := tr.ExemplarFeaturesFor(seq.Frames[0], box)
	if err != nil {
		t.Fatal(err)
	}
	s := &TrackService{tr: tr}
	step := func(withMask bool) *trackReq {
		req := &trackReq{op: opStep, frame: frame, box: box, zf: zf, withMask: withMask}
		if err := s.inferOne(req); err != nil {
			t.Fatal(err)
		}
		return req
	}
	plain, masked := step(false), step(true)
	if masked.outBox != plain.outBox || plain.outMask != nil {
		t.Fatalf("masked step box %+v, unmasked %+v (mask %v)", masked.outBox, plain.outBox, plain.outMask)
	}
	_, want, err := tr.StepE(zf, frame, box, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Data {
		if math.Float32bits(masked.outMask.Data[i]) != math.Float32bits(v) {
			t.Fatalf("masked step's mask differs from StepE's at %d", i)
		}
	}

	// The mask head alone, on a response of the step's shape.
	crop, _ := tr.SearchCrop(frame, box, box.CX, box.CY)
	xf := tr.Adjust.Forward([]*tensor.Tensor{tr.Backbone.Forward(crop.Reshape(1, 3, crop.Dim(1), crop.Dim(2)), false)}, false)
	resp, err := track.DWXCorrE(zf, xf.Reshape(xf.Dim(1), xf.Dim(2), xf.Dim(3)))
	if err != nil {
		t.Fatal(err)
	}
	resp4 := resp.Reshape(1, resp.Dim(0), resp.Dim(1), resp.Dim(2))
	var patch *tensor.Tensor
	head := testing.AllocsPerRun(20, func() {
		tr.Mask.Forward([]*tensor.Tensor{resp4}, false)
		patch = tensor.New(1, tr.Cfg.MaskSize, tr.Cfg.MaskSize)
	})
	_ = patch
	plainAllocs := testing.AllocsPerRun(20, func() { step(false) })
	maskedAllocs := testing.AllocsPerRun(20, func() { step(true) })
	if maskedAllocs > plainAllocs+head {
		t.Fatalf("a masked step allocates %v times, an unmasked one %v and the mask head %v: the front half ran twice", maskedAllocs, plainAllocs, head)
	}
}

// TestTrackMaskSessionMatchesOffline pins the mask path end to end: the
// wire mask equals StepE's on the same state bit for bit.
func TestTrackMaskSessionMatchesOffline(t *testing.T) {
	tr := testTracker(true)
	seq := testTrackSequences(1, 3)[0]

	zf, err := tr.ExemplarFeaturesFor(seq.Frames[0], seq.Boxes[0])
	if err != nil {
		t.Fatal(err)
	}
	_, wantMask, err := tr.StepE(zf, seq.Frames[1], seq.Boxes[0], true)
	if err != nil {
		t.Fatal(err)
	}

	ts := newTestTrackService(t, tr, TrackConfig{})
	h := ts.Handler()
	body, err := json.Marshal(TrackStartRequest{Shape: seq.Frames[0].Shape(), Data: seq.Frames[0].Data, Box: seq.Boxes[0]})
	if err != nil {
		t.Fatal(err)
	}
	rec := post(h, "/track/start", body)
	var sr TrackStartResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("start: status %d %q", rec.Code, rec.Body)
	}
	if body, err = json.Marshal(TrackStepRequest{Session: sr.Session, Shape: seq.Frames[1].Shape(), Data: seq.Frames[1].Data, Mask: true}); err != nil {
		t.Fatal(err)
	}
	rec = post(h, "/track/step", body)
	var sp TrackStepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sp); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("step: status %d %q", rec.Code, rec.Body)
	}
	if sp.Mask == nil {
		t.Fatal("no mask returned")
	}
	gt, err := sp.Mask.Tensor()
	if err != nil {
		t.Fatal(err)
	}
	if len(gt.Data) != len(wantMask.Data) {
		t.Fatalf("mask size %d, want %d", len(gt.Data), len(wantMask.Data))
	}
	for i := range wantMask.Data {
		if math.Float32bits(gt.Data[i]) != math.Float32bits(wantMask.Data[i]) {
			t.Fatalf("mask differs from offline StepE's at %d", i)
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
	h := ts.Handler()
	seq := testTrackSequences(1, 3)[0]

	call := func(path string, payload any) (int, []byte) {
		t.Helper()
		body, err := json.Marshal(payload)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		rec := post(h, path, body)
		return rec.Code, rec.Body.Bytes()
	}

	// Malformed tensor shape → 400.
	if st, _ := call("/track/start", TrackStartRequest{Shape: []int{2, 2}, Data: []float32{1, 2, 3, 4},
		Box: seq.Boxes[0]}); st != http.StatusBadRequest {
		t.Fatalf("bad shape start: status %d, want 400", st)
	}
	// Degenerate box → 400 (the tracker rejects it, worker survives).
	frame := seq.Frames[0]
	if st, _ := call("/track/start", TrackStartRequest{Shape: frame.Shape(), Data: frame.Data,
		Box: detect.Box{CX: 0.5, CY: 0.5, W: 0, H: 0}}); st != http.StatusBadRequest {
		t.Fatalf("degenerate box start: status %d, want 400", st)
	}
	// Unknown session → 404.
	if st, _ := call("/track/step", TrackStepRequest{Session: "t-999", Shape: frame.Shape(),
		Data: frame.Data}); st != http.StatusNotFound {
		t.Fatalf("unknown session step: status %d, want 404", st)
	}
	if st, _ := call("/track/stop", TrackStopRequest{Session: "t-999"}); st != http.StatusNotFound {
		t.Fatalf("unknown session stop: status %d, want 404", st)
	}
	// The service still works after every failure.
	var sr TrackStartResponse
	st, body := call("/track/start", TrackStartRequest{Shape: frame.Shape(), Data: frame.Data, Box: seq.Boxes[0]})
	if err := json.Unmarshal(body, &sr); err != nil || st != http.StatusOK || sr.Session == "" {
		t.Fatalf("start after failures: status %d err %v resp %+v", st, err, sr)
	}
	if m := ts.Metrics(); m.Failed == 0 {
		t.Fatalf("metrics %+v: want failures counted", m)
	}
}

// TestTrackMetricsOneInferenceStage pins the tracking door's /metrics: the
// session counters, and one inference stage with no batch formation — every
// request is its own batch.
func TestTrackMetricsOneInferenceStage(t *testing.T) {
	ts := newTestTrackService(t, testTracker(false), TrackConfig{})
	h := ts.Handler()
	hs := httptest.NewServer(h)
	defer hs.Close()
	seq := testTrackSequences(1, 3)[0]

	body, err := json.Marshal(TrackStartRequest{Shape: seq.Frames[0].Shape(), Data: seq.Frames[0].Data, Box: seq.Boxes[0]})
	if err != nil {
		t.Fatal(err)
	}
	if rec := post(h, "/track/start", body); rec.Code != http.StatusOK {
		t.Fatalf("start: status %d %q", rec.Code, rec.Body)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m TrackMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Started != 1 || m.Sessions != 1 {
		t.Fatalf("metrics %+v: want one session started and live", m)
	}
	if st := m.Stages; len(st) != 1 || st[0].Name != pipeline.StageInfer || st[0].Items != 1 || st[0].Batches != st[0].Items {
		t.Fatalf("tracking stages %+v, want one %q stage with batches == items == 1", st, pipeline.StageInfer)
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

// TestTrackSessionNonFiniteFrames: a frame of finite pixels large enough to
// overflow the forward (3e38 is valid JSON and a valid float32) is a 400 at
// /track/start and at /track/step — never a 200 with a body that failed to
// encode — and a failed step leaves the session on its last good box, so the
// next good frame steps from it as the offline tracker does.
func TestTrackSessionNonFiniteFrames(t *testing.T) {
	tr := testTracker(false)
	ts := newTestTrackService(t, tr, TrackConfig{})
	h := ts.Handler()
	seq := testTrackSequences(1, 3)[0]
	huge := seq.Frames[1].Clone()
	huge.Fill(3e38)
	call := func(path string, payload any) (int, []byte) {
		t.Helper()
		body, err := json.Marshal(payload)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		rec := post(h, path, body)
		return rec.Code, rec.Body.Bytes()
	}

	if st, body := call("/track/start", TrackStartRequest{Shape: huge.Shape(), Data: huge.Data, Box: seq.Boxes[0]}); st != http.StatusBadRequest {
		t.Fatalf("start on an overflowing frame: status %d %q, want 400", st, body)
	}
	var sr TrackStartResponse
	st, body := call("/track/start", TrackStartRequest{Shape: seq.Frames[0].Shape(), Data: seq.Frames[0].Data, Box: seq.Boxes[0]})
	if err := json.Unmarshal(body, &sr); err != nil || st != http.StatusOK {
		t.Fatalf("start: status %d %q", st, body)
	}
	if st, body := call("/track/step", TrackStepRequest{Session: sr.Session, Shape: huge.Shape(), Data: huge.Data}); st != http.StatusBadRequest {
		t.Fatalf("step on an overflowing frame: status %d %q, want 400", st, body)
	}
	var sp TrackStepResponse
	st, body = call("/track/step", TrackStepRequest{Session: sr.Session, Shape: seq.Frames[1].Shape(), Data: seq.Frames[1].Data})
	if err := json.Unmarshal(body, &sp); err != nil || st != http.StatusOK {
		t.Fatalf("step after the failed one: status %d %q", st, body)
	}
	zf, err := tr.ExemplarFeaturesFor(seq.Frames[0], seq.Boxes[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.StepBoxE(zf, seq.Frames[1], seq.Boxes[0])
	if err != nil {
		t.Fatal(err)
	}
	if sp.Box != want {
		t.Fatalf("step after the failed one: box %+v, want %+v from the session's last good box", sp.Box, want)
	}
}

// TestTrackSessionStepAllocs: a warm session's Step allocates nothing — its
// record is recycled, the lane's trip allocates nothing, and neither does the
// tracker's step — so any growth on the serving side shows here.
func TestTrackSessionStepAllocs(t *testing.T) {
	ctx := context.Background()
	ts := newTestTrackService(t, testTracker(false), TrackConfig{})
	seq := testTrackSequences(1, 2)[0]
	id, _, err := ts.Start(ctx, seq.Frames[0], seq.Boxes[0])
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, _, err := ts.Step(ctx, id, seq.Frames[1], false); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if got := testing.AllocsPerRun(50, step); got != 0 {
		t.Fatalf("a warm Step allocates %v times, want 0", got)
	}
}

// TestTrackSessionStartAllocs pins a warm Start, with the Stop that empties
// the table again, at one allocation: the ID string. The session record and
// its template tensor come off the service's free list, the template forward
// writing in place; they were three more before they were recycled.
func TestTrackSessionStartAllocs(t *testing.T) {
	ctx := context.Background()
	ts := newTestTrackService(t, testTracker(false), TrackConfig{})
	seq := testTrackSequences(1, 1)[0]
	start := func() {
		id, _, err := ts.Start(ctx, seq.Frames[0], seq.Boxes[0])
		if err != nil {
			t.Fatal(err)
		}
		ts.Stop(id)
	}
	for i := 0; i < 256; i++ {
		start()
	}
	if got := testing.AllocsPerRun(50, start); got != 1 {
		t.Fatalf("a warm Start allocates %v times, want 1", got)
	}
}

// TestTrackSessionRecyclingNeverCrossesSessions churns sessions on one
// service: each is stepped by several goroutines at once and stopped while
// they step, and its owner starts the next session at once, most likely on
// the record just stopped. A session steps one frame again and again, so its
// steps, in the order they take its lock, are the offline trajectory from its
// template: every Step must return ErrNoSession or a box of that trajectory,
// and the boxes a session returned must be the trajectory's first m, each
// once. A Step that went on with a record after its session was stopped would
// step whichever session the record went to next.
func TestTrackSessionRecyclingNeverCrossesSessions(t *testing.T) {
	const templates, owners, rounds, steppers, steps = 4, 4, 48, 4, 3
	tr := testTracker(false)
	seqs := testTrackSequences(templates, 2)
	want := make([][]detect.Box, templates)
	for j, seq := range seqs {
		zf, err := tr.ExemplarFeaturesFor(seq.Frames[0], seq.Boxes[0])
		if err != nil {
			t.Fatal(err)
		}
		for k, box := 0, seq.Boxes[0]; k < steppers*steps; k++ {
			if box, err = tr.StepBoxE(zf, seq.Frames[1], box); err != nil {
				t.Fatal(err)
			}
			want[j] = append(want[j], box)
		}
	}
	ts := newTestTrackService(t, tr, TrackConfig{QueueDepth: 256, RequestTimeout: 2 * time.Minute})
	ctx := context.Background()
	type run struct {
		j     int
		boxes chan detect.Box // every box a Step of the session returned
	}
	runs := make(chan run, owners*rounds)
	var steppersWG, ownersWG sync.WaitGroup
	for g := 0; g < owners; g++ {
		ownersWG.Add(1)
		go func() {
			defer ownersWG.Done()
			for r := 0; r < rounds; r++ {
				j := (g + r) % templates
				seq := seqs[j]
				id, _, err := ts.Start(ctx, seq.Frames[0], seq.Boxes[0])
				if err != nil {
					t.Error(err)
					return
				}
				ru := run{j: j, boxes: make(chan detect.Box, steppers*steps)}
				runs <- ru
				for i := 0; i < steppers; i++ {
					steppersWG.Add(1)
					go func() {
						defer steppersWG.Done()
						for k := 0; k < steps; k++ {
							box, _, err := ts.Step(ctx, id, seq.Frames[1], false)
							if errors.Is(err, ErrNoSession) {
								return
							}
							if err != nil {
								t.Error(err)
								return
							}
							ru.boxes <- box
						}
					}()
				}
				// Stop a moment after the steppers began, or once the session
				// has stepped a few times: which Steps go stale differs with
				// GOMAXPROCS, and each half of the rounds catches them at some.
				if r < rounds/2 {
					time.Sleep(time.Duration(r%3) * time.Millisecond)
				}
				for r >= rounds/2 && len(ru.boxes) <= r%steppers && !t.Failed() {
					runtime.Gosched()
				}
				if !ts.Stop(id) {
					t.Errorf("Stop(%s) found no session", id)
				}
			}
		}()
	}
	ownersWG.Wait()
	steppersWG.Wait()
	close(runs)
	for ru := range runs {
		close(ru.boxes)
		got := map[detect.Box]int{}
		m := 0
		for box := range ru.boxes {
			got[box]++
			m++
		}
		for _, box := range want[ru.j][:m] {
			got[box]--
		}
		for box, n := range got {
			if n != 0 {
				t.Fatalf("a session of template %d returned %d boxes, and box %+v %+d times against its first %d offline steps", ru.j, m, box, n, m)
			}
		}
	}
}

// TestTrackSessionAbandonedRecordsStayOffTheList: a record that a Start or a
// Step abandoned by a context error lent to the lane may still be written or
// read by its forward, so neither that Start nor the session's Stop puts it on
// the free list; a record no abandoned forward touched goes back.
func TestTrackSessionAbandonedRecordsStayOffTheList(t *testing.T) {
	ctx := context.Background()
	gone, cancel := context.WithCancel(ctx)
	cancel()
	ts := newTestTrackService(t, testTracker(false), TrackConfig{})
	seq := testTrackSequences(1, 2)[0]
	if _, _, err := ts.Start(gone, seq.Frames[0], seq.Boxes[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("Start on a cancelled context: %v", err)
	}
	if n := ts.free.Len(); n != 0 {
		t.Fatalf("an abandoned Start left %d records on the free list, want 0", n)
	}
	id, _, err := ts.Start(ctx, seq.Frames[0], seq.Boxes[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ts.Step(gone, id, seq.Frames[1], false); !errors.Is(err, context.Canceled) {
		t.Fatalf("Step on a cancelled context: %v", err)
	}
	if !ts.Stop(id) {
		t.Fatal("the session did not outlive its abandoned Step")
	}
	if n := ts.free.Len(); n != 0 {
		t.Fatalf("stopping a session with an abandoned Step left %d records on the free list, want 0", n)
	}
	if id, _, err = ts.Start(ctx, seq.Frames[0], seq.Boxes[0]); err != nil {
		t.Fatal(err)
	}
	ts.Stop(id)
	if n := ts.free.Len(); n != 1 {
		t.Fatalf("a plain Start and Stop left %d records on the free list, want 1", n)
	}
}
