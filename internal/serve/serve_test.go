package serve

// Failure-mode tests for the serving layer, written to run under -race:
// admission overflow sheds with 429, cancelled requests leak no
// goroutines, drain completes in-flight work, and a panicking model
// converts to per-request 500s without killing the shared stream. The
// tests go through the one front door — a Pool with a single worker, over
// Pool.Handler() or Pool.Submit — and the engine tests reach behind it for
// the serving generation's queue and clocks.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skynet/internal/detect"
	"skynet/internal/pipeline"
	"skynet/internal/tensor"
)

// stubModel is a controllable detect.Model: an optional gate blocks every
// forward until released, a flag turns forwards into panics, and batch
// sizes are recorded. The output derives deterministically from the input
// so distinct images decode to distinct boxes.
type stubModel struct {
	gate    chan struct{} // nil = never block; closed = released
	panics  atomic.Bool
	mu      sync.Mutex
	batches []int
}

func (m *stubModel) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if m.gate != nil {
		<-m.gate
	}
	if m.panics.Load() {
		panic("stub model poisoned")
	}
	b := x.Dim(0)
	m.mu.Lock()
	m.batches = append(m.batches, b)
	m.mu.Unlock()
	per := x.Dim(1) * x.Dim(2) * x.Dim(3)
	out := tensor.New(b, 10, 1, 1)
	for i := 0; i < b; i++ {
		var sum float32
		for _, v := range x.Data[i*per : (i+1)*per] {
			sum += v
		}
		for c := 0; c < 10; c++ {
			out.Data[i*10+c] = sum / float32(per) * float32(c+1)
		}
	}
	return out
}

func testImage(seed float32) *tensor.Tensor {
	img := tensor.New(3, 8, 8)
	for i := range img.Data {
		img.Data[i] = seed + float32(i)*0.001
	}
	return img
}

// newSinglePool stands one model up behind the front door: a one-worker
// pool with the response cache off, so every request reaches the queue
// and Served/Rejected/MeanBatchSize keep their per-request meaning.
func newSinglePool(t *testing.T, m detect.Model, cfg Config) *Pool {
	t.Helper()
	return newTestPool(t, func() (detect.Model, *detect.Head, error) {
		return m, detect.NewHead(nil), nil
	}, PoolConfig{Replicas: 1, CacheEntries: -1, Replica: cfg})
}

func TestSubmitServes(t *testing.T) {
	s := newSinglePool(t, &stubModel{}, Config{})
	box, conf, err := s.Submit(context.Background(), testImage(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if box.W <= 0 || box.H <= 0 || conf <= 0 || conf > 1 {
		t.Fatalf("degenerate detection %+v conf %v", box, conf)
	}
	m := s.Metrics()
	if m.Served != 1 || m.Failed != 0 || m.Rejected != 0 {
		t.Fatalf("metrics %+v after one success", m)
	}
	if m.Latency.P50MS <= 0 || m.Latency.P99MS < m.Latency.P50MS {
		t.Fatalf("latency summary %+v", m.Latency)
	}
}

func TestSubmitValidatesInput(t *testing.T) {
	s := newSinglePool(t, &stubModel{}, Config{})
	// A rank-2 tensor must fail pre-processing, not kill the stream.
	if _, _, err := s.Submit(context.Background(), tensor.New(4, 4)); err == nil {
		t.Fatal("rank-2 image must be rejected")
	}
	// The stream survives and serves the next request.
	if _, _, err := s.Submit(context.Background(), testImage(0.5)); err != nil {
		t.Fatalf("stream died after a bad request: %v", err)
	}
	if m := s.Metrics(); m.Failed != 1 || m.Served != 1 {
		t.Fatalf("metrics %+v, want 1 failed + 1 served", m)
	}
}

// TestBadInputTakesNoQueueSlot: validation runs on the caller's goroutine
// before admission, so a malformed frame offered to a pool whose queue is
// full is the caller's error (400), not a shed (429), and the queue never
// sees it.
func TestBadInputTakesNoQueueSlot(t *testing.T) {
	m := &enteringModel{stubModel: stubModel{gate: make(chan struct{})}, entered: make(chan struct{})}
	s := newSinglePool(t, m, Config{QueueDepth: 1, MaxBatch: 1, RequestTimeout: -1})
	defer close(m.gate) // before the cleanup's close, which waits for the forward

	// Fill the engine: one request in the gated forward, one in the queue.
	go func() { _, _, _ = s.Submit(context.Background(), testImage(0.1)) }()
	<-m.entered
	go func() { _, _, _ = s.Submit(context.Background(), testImage(0.2)) }()
	for len(s.gen.Load().in) < 1 {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := s.Submit(context.Background(), testImage(0.5)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("a well-formed frame at a full queue: %v, want ErrOverloaded", err)
	}

	before := s.Metrics()
	_, _, err := s.Submit(context.Background(), tensor.New(4, 4))
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("a rank-2 frame at a full queue: %v, want ErrBadInput", err)
	}
	after := s.Metrics()
	if after.ReplicaMetrics[0].QueueDepth != before.ReplicaMetrics[0].QueueDepth || after.Rejected != before.Rejected || after.Failed != before.Failed+1 {
		t.Fatalf("metrics moved from %+v to %+v: a bad frame is one failure, no shed, no queue slot", before, after)
	}
}

// TestCancelledCallerCostsNoDecode: post-process runs on the caller's
// goroutine after the hand-back, so a request whose caller gave up during
// the forward is inferred (the forward was already running) and never decoded.
func TestCancelledCallerCostsNoDecode(t *testing.T) {
	m := &enteringModel{stubModel: stubModel{gate: make(chan struct{})}, entered: make(chan struct{})}
	s := newSinglePool(t, m, Config{MaxBatch: 1, RequestTimeout: -1})

	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		_, _, err := s.Submit(ctx, testImage(0.2))
		gone <- err
	}()
	<-m.entered
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: %v", err)
	}
	close(m.gate)
	for s.gen.Load().work.items.Load() < 1 { // the forward finishes and the ticket is handed back
		time.Sleep(time.Millisecond)
	}
	// A second request proves the worker has moved on; it is the only decode.
	if _, _, err := s.Submit(context.Background(), testImage(0.6)); err != nil {
		t.Fatal(err)
	}
	st := s.Metrics().ReplicaMetrics[0].Stages
	if st[1].Items != 2 || st[2].Items != 1 {
		t.Fatalf("%d forwards and %d decodes, want 2 and 1: the cancelled caller's frame must not be post-processed",
			st[1].Items, st[2].Items)
	}
	if m := s.Metrics(); m.Expired != 1 || m.Served != 1 {
		t.Fatalf("metrics %+v, want 1 expired + 1 served", m)
	}
}

func TestOverflowSheds429(t *testing.T) {
	m := &stubModel{gate: make(chan struct{})}
	s := newSinglePool(t, m, Config{QueueDepth: 1, MaxBatch: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var body bytes.Buffer
	if err := detect.EncodeRequest(&body, testImage(0.1)); err != nil {
		t.Fatal(err)
	}
	payload := body.Bytes()

	// With inference gated shut, the pipeline can absorb only a handful of
	// requests (queue + stage buffers); the rest must shed immediately.
	const n = 24
	statuses := make(chan int, n)
	retryAfter := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/detect", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Errorf("transport error: %v", err)
				return
			}
			defer resp.Body.Close()
			_, _ = io.Copy(io.Discard, resp.Body)
			statuses <- resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests {
				retryAfter <- resp.Header.Get("Retry-After")
			}
		}()
	}
	// Release the model once rejections have been observed, so accepted
	// requests finish and the goroutines join.
	deadline := time.After(10 * time.Second)
	for s.Metrics().Rejected == 0 {
		select {
		case <-deadline:
			t.Fatal("no request was shed while inference was gated")
		case <-time.After(time.Millisecond):
		}
	}
	close(m.gate)
	wg.Wait()
	close(statuses)
	close(retryAfter)

	shed, ok := 0, 0
	for st := range statuses {
		switch st {
		case http.StatusTooManyRequests:
			shed++
		case http.StatusOK:
			ok++
		default:
			t.Fatalf("unexpected status %d", st)
		}
	}
	if shed == 0 || ok == 0 {
		t.Fatalf("want both shed and served traffic, got %d shed / %d ok", shed, ok)
	}
	for ra := range retryAfter {
		if ra == "" {
			t.Fatal("429 responses must carry Retry-After")
		}
	}
	if m := s.Metrics(); m.Rejected != int64(shed) {
		t.Fatalf("rejected counter %d, want %d", m.Rejected, shed)
	}
}

func TestCancelledRequestDoesNotLeakGoroutines(t *testing.T) {
	m := &stubModel{gate: make(chan struct{})}
	s := newSinglePool(t, m, Config{QueueDepth: 16, MaxBatch: 4})

	// Warm the pipeline once so lazily started goroutines exist before the
	// baseline count is taken.
	warmCtx, warmCancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, _, _ = s.Submit(warmCtx, testImage(0.2))
	warmCancel()
	baseline := runtime.NumGoroutine()

	const n = 8
	var wg sync.WaitGroup
	var expired atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			_, _, err := s.Submit(ctx, testImage(float32(i)*0.05))
			if errors.Is(err, context.DeadlineExceeded) {
				expired.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if expired.Load() == 0 {
		t.Fatal("no request expired while inference was gated")
	}
	close(m.gate)

	// Every caller goroutine has exited; the pipeline must settle back to
	// its steady-state goroutine count.
	deadline := time.After(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		select {
		case <-deadline:
			t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestDrainCompletesInFlight(t *testing.T) {
	m := &stubModel{gate: make(chan struct{})}
	p := newSinglePool(t, m, Config{QueueDepth: 8, MaxBatch: 4, RequestTimeout: -1})
	s := p.gen.Load()

	// Admitted on this goroutine, so all three are in the queue or in the
	// worker's hands before the drain begins (a Submit that had only been
	// pre-processed by then would be refused, correctly, with ErrDraining).
	reqs := make([]*request, 3)
	for i := range reqs {
		reqs[i] = enqueue(t, s, testImage(float32(i)*0.1))
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.drain(ctx)
	}()
	// New work is refused while draining.
	for !s.isDraining() {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := p.Submit(context.Background(), testImage(0.9)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining returned %v, want ErrDraining", err)
	}

	close(m.gate) // let the in-flight batch run
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, req := range reqs {
		<-req.done
		if req.err != nil {
			t.Fatalf("in-flight request %d failed during drain: %v", i, req.err)
		}
	}
}

func TestPanicBecomes500AndServerSurvives(t *testing.T) {
	m := &stubModel{}
	m.panics.Store(true)
	s := newSinglePool(t, m, Config{MaxBatch: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func() (*http.Response, detect.Response) {
		var body bytes.Buffer
		if err := detect.EncodeRequest(&body, testImage(0.4)); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/detect", "application/json", &body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		dec, err := detect.DecodeResponse(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, dec
	}

	resp, dec := post()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking inference returned %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(dec.Error, "panic") {
		t.Fatalf("error body %q does not mention the panic", dec.Error)
	}

	// The stream survived: healthz is green and the next request succeeds.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %v %v", hz, err)
	}
	hz.Body.Close()
	m.panics.Store(false)
	resp, dec = post()
	if resp.StatusCode != http.StatusOK || dec.Error != "" {
		t.Fatalf("server did not recover: status %d, error %q", resp.StatusCode, dec.Error)
	}
}

func TestHTTPBadRequest(t *testing.T) {
	s := newSinglePool(t, &stubModel{}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"garbage":     "not json at all",
		"wrong shape": `{"shape":[4,4],"data":[0,0]}`,
		"data count":  `{"shape":[1,2,2],"data":[0]}`,
	} {
		resp, err := http.Post(ts.URL+"/detect", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestMetricsEndpointAndDrainHealth(t *testing.T) {
	s := newSinglePool(t, &stubModel{}, Config{QueueDepth: 7})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, _, err := s.Submit(context.Background(), testImage(0.7)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m PoolMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics did not parse: %v", err)
	}
	if m.Replicas != 1 || m.Served != 1 || len(m.ReplicaMetrics) != 1 {
		t.Fatalf("metrics %+v", m)
	}
	rm := m.ReplicaMetrics[0]
	if rm.QueueCap != 7 || rm.Served != 1 || len(rm.Stages) != 3 {
		t.Fatalf("replica metrics %+v", rm)
	}
	// The stage table keeps its shape: the callers' pre- and post-process
	// either side of the worker's inference, one item each for one request.
	for i, want := range []string{pipeline.StagePre, pipeline.StageInfer, pipeline.StagePost} {
		if st := rm.Stages[i]; st.Name != want || st.Items != 1 || st.BusyMS <= 0 {
			t.Fatalf("stage %d: %+v, want %q with one timed item", i, st, want)
		}
	}
	if inf := rm.Stages[1]; inf.Workers != 1 || inf.Batches != 1 || rm.Batches != 1 || rm.MeanBatchSize != 1 {
		t.Fatalf("inference stage %+v (headline batches %d, mean %.2f), want one worker and one batch of one", inf, rm.Batches, rm.MeanBatchSize)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: %d, want 503", hz.StatusCode)
	}
}

// steppedModel is a stubModel the test walks one forward at a time: each
// forward reports its batch size on entered, then waits for a token on gate.
type steppedModel struct {
	stubModel
	entered chan int
}

func (m *steppedModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	m.entered <- x.Dim(0)
	return m.stubModel.Forward(x, train)
}

// enqueue is Submit up to admission, on the test's goroutine: when it
// returns the request is in the generation's queue.
func enqueue(t *testing.T, r *generation, img *tensor.Tensor) *request {
	t.Helper()
	f, err := r.prepare(img, false)
	if err != nil {
		t.Fatal(err)
	}
	req := &request{ticket: newTicket(context.Background()), frame: f}
	if err := r.admit(req); err != nil {
		t.Fatal(err)
	}
	return req
}

// answer is the rest of Submit: wait for the worker to hand req back, decode.
func answer(t *testing.T, r *generation, req *request) (detect.Box, float64) {
	t.Helper()
	<-req.done
	if req.err != nil {
		t.Fatal(req.err)
	}
	if err := detect.Postprocess(r.head, req.frame); err != nil {
		t.Fatal(err)
	}
	return req.frame.Box, req.frame.Conf
}

// The batching rule, with no clock in it: a lone request's forward starts with
// nothing else queued — before any second arrival — and the k requests
// admitted while that forward is held are the next batch of min(k, MaxBatch),
// the remainder the one after.
func TestBatchIsWhatQueuedWhileTheLastForwardRan(t *testing.T) {
	const maxBatch, k = 4, 7
	m := &steppedModel{stubModel: stubModel{gate: make(chan struct{})}, entered: make(chan int)}
	r := newSinglePool(t, m, Config{MaxBatch: maxBatch, QueueDepth: k, RequestTimeout: -1}).gen.Load()

	reqs := []*request{enqueue(t, r, testImage(0))}
	if got := <-m.entered; got != 1 {
		t.Fatalf("the lone request's forward has batch %d, want 1", got)
	}
	for i := 1; i <= k; i++ {
		reqs = append(reqs, enqueue(t, r, testImage(float32(i)*0.01)))
	}
	for _, want := range []int{maxBatch, k - maxBatch} {
		m.gate <- struct{}{}
		if got := <-m.entered; got != want {
			t.Fatalf("forward of batch %d, want %d", got, want)
		}
	}
	m.gate <- struct{}{}
	for _, req := range reqs {
		answer(t, r, req)
	}
	if mb, want := r.Metrics().MeanBatchSize, float64(1+k)/3; mb != want {
		t.Fatalf("mean batch size %v, want %v", mb, want)
	}
}

// Two clients, two frame sizes, one batch: held behind a forward in flight,
// small, small, large, small queue together. Each must be answered bitwise as
// that frame is answered alone — one forward per same-shape run (2, 1, 1) —
// where stacking them at the first frame's size answered the large one from a
// truncated copy, with a 200.
func TestMixedSizeBatchAnswersEachFrameAtItsOwnSize(t *testing.T) {
	large := tensor.New(3, 12, 16)
	for i := range large.Data {
		large.Data[i] = float32(i%97) * 0.01
	}
	images := []*tensor.Tensor{testImage(0.1), testImage(0.2), large, testImage(0.3)}

	gate := make(chan struct{})
	m := &enteringModel{stubModel: stubModel{gate: gate}, entered: make(chan struct{})}
	r := newSinglePool(t, m, Config{MaxBatch: 8, RequestTimeout: -1}).gen.Load()

	held := enqueue(t, r, testImage(0.9))
	<-m.entered
	var batched []*request
	for _, img := range images {
		batched = append(batched, enqueue(t, r, img))
	}
	close(gate)
	answer(t, r, held)
	for i, req := range batched {
		box, conf := answer(t, r, req)
		aloneBox, aloneConf := answer(t, r, enqueue(t, r, images[i]))
		if box != aloneBox || conf != aloneConf {
			t.Errorf("frame %d %v: in the mixed batch %+v conf %v, alone %+v conf %v",
				i, images[i].Shape(), box, conf, aloneBox, aloneConf)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if want := []int{1, 2, 1, 1, 1, 1, 1, 1}; !slices.Equal(m.batches, want) {
		t.Errorf("forwards ran batches %v, want %v", m.batches, want)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	p50, p95, p99 := h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
	if p50 > 3*time.Millisecond || p50 < time.Millisecond/2 {
		t.Fatalf("p50 %v far from 1ms", p50)
	}
	if p95 < 50*time.Millisecond || p99 < p95 {
		t.Fatalf("p95 %v p99 %v not in the tail", p95, p99)
	}
	if m := h.Mean(); m < 5*time.Millisecond || m > 30*time.Millisecond {
		t.Fatalf("mean %v, want ≈ 10.9ms", m)
	}
	// Bucket bounds are monotone.
	for i := 1; i < histBuckets; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucket bound %d not monotone", i)
		}
	}
}

func TestServerRequiresModelAndHead(t *testing.T) {
	for what, factory := range map[string]ModelFactory{
		"nil model": func() (detect.Model, *detect.Head, error) { return nil, detect.NewHead(nil), nil },
		"nil head":  func() (detect.Model, *detect.Head, error) { return &stubModel{}, nil, nil },
	} {
		if p, err := NewPool(factory, PoolConfig{Replicas: 2}); err == nil {
			p.Close()
			t.Fatalf("a factory that returns a %s must be rejected", what)
		}
	}
}
