package serve

// Pool tests, written to run under -race: an idle worker takes what is
// queued whatever its content hash, the pool 429s only when its one queue (or,
// on the HTTP door, the inflight semaphore) is full, duplicate frames come out
// of the response cache, and — the acceptance headline — a model hot-swap
// under live HTTP load drops zero requests, serves every response from
// exactly one generation's weights, and invalidates the cache at cutover.
// N-worker responses are pinned byte-identical to the 1-worker configuration.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skynet/internal/detect"
	"skynet/internal/tensor"
)

// verModel is a deterministic stub whose output depends on a version tag:
// two generations of a hot-swap produce distinct (but individually
// deterministic) responses, so every HTTP body can be attributed to exactly
// one generation. forwards counts batched forward passes across the
// factory's instances.
type verModel struct {
	version  float32
	gate     chan struct{}
	forwards *atomic.Int64
}

func (m *verModel) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if m.gate != nil {
		<-m.gate
	}
	if m.forwards != nil {
		m.forwards.Add(1)
	}
	b := x.Dim(0)
	per := x.Dim(1) * x.Dim(2) * x.Dim(3)
	out := tensor.New(b, 10, 1, 1)
	for i := 0; i < b; i++ {
		var sum float32
		for _, v := range x.Data[i*per : (i+1)*per] {
			sum += v
		}
		for c := 0; c < 10; c++ {
			out.Data[i*10+c] = (sum/float32(per) + m.version) * float32(c+1) * 0.1
		}
	}
	return out
}

// verFactory builds one generation's models; every instance shares the
// version, gate, and forward counter.
func verFactory(version float32, gate chan struct{}, forwards *atomic.Int64) ModelFactory {
	return func() (detect.Model, *detect.Head, error) {
		return &verModel{version: version, gate: gate, forwards: forwards}, detect.NewHead(nil), nil
	}
}

func newTestPool(t *testing.T, factory ModelFactory, cfg PoolConfig) *Pool {
	t.Helper()
	p, err := NewPool(factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// wantBody computes the reference response bytes for one image under one
// model version: the serial single-model path the pool must match.
func wantBody(t *testing.T, version float32, img *tensor.Tensor) []byte {
	t.Helper()
	m := &verModel{version: version}
	head := detect.NewHead(nil)
	x := img.Clone()
	boxes, confs := head.Decode(m.Forward(x.Reshape(1, x.Dim(0), x.Dim(1), x.Dim(2)), false))
	var buf bytes.Buffer
	if err := detect.EncodeResponse(&buf, detect.Response{Box: boxes[0], Conf: confs[0]}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPoolCacheServesDuplicateFrames(t *testing.T) {
	var forwards atomic.Int64
	p := newTestPool(t, verFactory(1, nil, &forwards), PoolConfig{Replicas: 2, CacheEntries: 64,
		Replica: Config{MaxBatch: 1, QueueDepth: 16}})

	img := testImage(0.42)
	const n = 8
	var first []byte
	for i := 0; i < n; i++ {
		box, conf, err := p.Submit(context.Background(), img)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := detect.EncodeResponse(&buf, detect.Response{Box: box, Conf: conf}); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("cached response differs from computed: %q vs %q", buf.Bytes(), first)
		}
	}
	m := p.Metrics()
	if m.CacheServed != n-1 {
		t.Fatalf("cache served %d of %d duplicates, want %d", m.CacheServed, n, n-1)
	}
	if got := forwards.Load(); got != 1 {
		t.Fatalf("%d forward passes for %d duplicate frames, want 1", got, n)
	}
	if m.Cache.Hits != n-1 || m.Cache.Entries != 1 {
		t.Fatalf("cache metrics %+v", m.Cache)
	}
}

// holdModel is a verModel whose generation parks its first hold forwards on
// gate — with batches of one, that is hold workers, each holding one request —
// and counts every forward as it begins.
type holdModel struct {
	verModel
	hold    int64
	entered *atomic.Int64
	gate    chan struct{}
}

func (m *holdModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if m.entered.Add(1) <= m.hold {
		<-m.gate
	}
	return m.verModel.Forward(x, train)
}

// newHoldPool starts a two-worker pool (batches of one, no cache, no default
// deadline) whose first hold forwards wait for release — which a failing test
// gets from the cleanup, before the pool's Close waits for those forwards.
func newHoldPool(t *testing.T, hold int64, queueDepth int) (p *Pool, entered *atomic.Int64, release func()) {
	t.Helper()
	entered = new(atomic.Int64)
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	p = newTestPool(t, func() (detect.Model, *detect.Head, error) {
		return &holdModel{verModel: verModel{version: 1}, hold: hold, entered: entered, gate: gate}, detect.NewHead(nil), nil
	}, PoolConfig{Replicas: 2, CacheEntries: -1,
		Replica: Config{MaxBatch: 1, QueueDepth: queueDepth, RequestTimeout: -1}})
	t.Cleanup(release)
	return p, entered, release
}

// TestPoolIdleWorkerTakesQueuedRequest: one of two workers is held inside a
// forward; every request that arrives meanwhile is answered by the other, at
// once — including, as here, requests whose content hash agrees with the held
// one's modulo the worker count, which a hash router queued behind the held
// forward while their sibling idled.
func TestPoolIdleWorkerTakesQueuedRequest(t *testing.T) {
	p, entered, release := newHoldPool(t, 1, 16)
	first := testImage(0)
	parity := hashFrame(first).lo % 2
	var same []*tensor.Tensor
	for i := 1; len(same) < 6; i++ {
		if img := testImage(float32(i) * 0.01); hashFrame(img).lo%2 == parity {
			same = append(same, img)
		}
	}

	held := make(chan error, 1)
	go func() {
		_, _, err := p.Submit(context.Background(), first)
		held <- err
	}()
	for entered.Load() < 1 {
		time.Sleep(time.Millisecond)
	}
	for i, img := range same {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, _, err := p.Submit(ctx, img)
		cancel()
		if err != nil {
			t.Fatalf("request %d, with one worker held and one idle: %v", i, err)
		}
	}
	select {
	case err := <-held:
		t.Fatalf("the held request returned (%v) before its gate opened", err)
	default:
	}
	if m := p.Metrics(); m.Rejected != 0 || m.Served != int64(len(same)) {
		t.Fatalf("rejected %d, served %d while one worker was held; want 0 and %d", m.Rejected, m.Served, len(same))
	}
	release()
	if err := <-held; err != nil {
		t.Fatalf("the held request: %v", err)
	}
}

// TestPoolShedsOnlyWhenTheQueueIsFull: with both workers held the pool admits
// exactly Replicas × QueueDepth further requests, sheds the next — at either
// door — and answers every admitted one once the workers are released.
func TestPoolShedsOnlyWhenTheQueueIsFull(t *testing.T) {
	const depth = 3
	p, entered, release := newHoldPool(t, 2, depth)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	post := func(i int) int {
		var body bytes.Buffer
		if err := detect.EncodeRequest(&body, testImage(float32(i)*0.01)); err != nil {
			t.Error(err)
			return 0
		}
		resp, err := http.Post(ts.URL+"/detect", "application/json", &body)
		if err != nil {
			t.Error(err)
			return 0
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	const admitted = 2 + 2*depth
	statuses := make(chan int, admitted)
	for i := 0; i < admitted; i++ {
		go func() { statuses <- post(i) }()
		if i == 1 { // the first two are the held forwards, not queue entries
			for entered.Load() < 2 {
				time.Sleep(time.Millisecond)
			}
		}
	}
	eventually(t, "2 × QueueDepth requests queue behind two held workers", func() bool {
		rm := p.Metrics().ReplicaMetrics[0]
		return rm.QueueDepth == 2*depth && rm.QueueCap == 2*depth
	})
	if m := p.Metrics(); m.Rejected != 0 {
		t.Fatalf("%d requests shed before the queue was full", m.Rejected)
	}

	if st := post(admitted); st != http.StatusTooManyRequests {
		t.Fatalf("POST at a full queue: status %d, want 429", st)
	}
	if _, _, err := p.Submit(context.Background(), testImage(0.99)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit at a full queue: %v, want ErrOverloaded", err)
	}
	if m := p.Metrics(); m.Rejected != 2 {
		t.Fatalf("rejected %d after two sheds, want 2", m.Rejected)
	}

	release()
	for i := 0; i < admitted; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Fatalf("an admitted request was answered %d, want 200", st)
		}
	}
}

// parkedBody is a request body whose Read parks until release closes, then
// reports an empty body.
type parkedBody struct{ release chan struct{} }

func (b parkedBody) Read([]byte) (int, error) { <-b.release; return 0, io.EOF }

// untouchableBody fails the test if anything reads it.
type untouchableBody struct{ t *testing.T }

func (b untouchableBody) Read([]byte) (int, error) {
	b.t.Error("the body of a request shed at the inflight semaphore was read")
	return 0, io.EOF
}

// TestPoolInflightSemaphoreShedsBeforeTheBodyIsRead: handlers parked in a
// body read are invisible to the admission queue — it is empty throughout —
// so the semaphore is what bounds them: with every slot held the next POST is
// a 429 that never touches its body, and /metrics reports the full semaphore.
func TestPoolInflightSemaphoreShedsBeforeTheBodyIsRead(t *testing.T) {
	p := newSinglePool(t, &stubModel{}, Config{QueueDepth: 1})
	h := p.Handler()
	slots := p.Metrics().InflightCap
	if want := 1 + inflightSlack; slots != want {
		t.Fatalf("inflight cap %d, want queue capacity + slack = %d", slots, want)
	}

	release := make(chan struct{})
	statuses := make(chan int, slots)
	for i := 0; i < slots; i++ {
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/detect", parkedBody{release}))
			statuses <- rec.Code
		}()
	}
	eventually(t, "every inflight slot is held by a handler parked in read", func() bool {
		return p.Metrics().Inflight == slots
	})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/detect", untouchableBody{t}))
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("POST with every slot held: status %d, Retry-After %q; want 429 with one", rec.Code, rec.Header().Get("Retry-After"))
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var m PoolMetrics
	if err := json.NewDecoder(rec.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Inflight != slots || m.InflightCap != slots || m.Rejected != 1 || m.ReplicaMetrics[0].QueueDepth != 0 {
		t.Fatalf("/metrics: inflight %d of %d, rejected %d, queue depth %d; want %d of %d, 1, 0",
			m.Inflight, m.InflightCap, m.Rejected, m.ReplicaMetrics[0].QueueDepth, slots, slots)
	}

	close(release)
	for i := 0; i < slots; i++ {
		if st := <-statuses; st != http.StatusBadRequest {
			t.Fatalf("a parked request with an empty body: status %d, want 400", st)
		}
	}
	if got := p.Metrics().Inflight; got != 0 {
		t.Fatalf("%d inflight slots still held after every handler returned", got)
	}
}

func TestPoolNReplicaByteIdenticalTo1Replica(t *testing.T) {
	imgs := make([]*tensor.Tensor, 6)
	for i := range imgs {
		imgs[i] = testImage(float32(i) * 0.17)
	}
	run := func(replicas, cacheEntries int) map[int][]byte {
		p := newTestPool(t, verFactory(2, nil, nil), PoolConfig{Replicas: replicas, CacheEntries: cacheEntries,
			Replica: Config{MaxBatch: 4, QueueDepth: 64}})
		ts := httptest.NewServer(p.Handler())
		defer ts.Close()
		lg := &LoadGen{URL: ts.URL, Clients: 6, Requests: 4, Images: imgs}
		rep, err := lg.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if errs := rep.Errors(); len(errs) != 0 {
			t.Fatalf("%d-replica run had %d errors; first %+v", replicas, len(errs), errs[0])
		}
		out := make(map[int][]byte)
		for _, res := range rep.Results {
			if prev, ok := out[res.Image]; ok && !bytes.Equal(prev, res.Body) {
				t.Fatalf("image %d served two different bodies within one run", res.Image)
			}
			out[res.Image] = res.Body
		}
		return out
	}
	one := run(1, -1)
	many := run(3, 64)
	for img, body := range one {
		if !bytes.Equal(body, many[img]) {
			t.Fatalf("image %d: 3-replica body %q differs from 1-replica body %q", img, many[img], body)
		}
		if want := wantBody(t, 2, imgs[img]); !bytes.Equal(body, want) {
			t.Fatalf("image %d: pooled body %q differs from serial inference %q", img, body, want)
		}
	}
}

// TestPoolSwapUnderLiveLoad is the hot-swap acceptance test: under
// continuous HTTP load, POST /admin/swap cuts the pool from generation 1
// (float-style v1 weights) to generation 2 (v2), and (a) zero requests are
// dropped — every response is a 200, (b) every body matches exactly one
// generation's serial reference (no torn responses), (c) the generation
// header agrees with the body it arrived with, (d) after the swap returns,
// everything — including frames cached under v1 — serves v2.
func TestPoolSwapUnderLiveLoad(t *testing.T) {
	imgs := make([]*tensor.Tensor, 4)
	for i := range imgs {
		imgs[i] = testImage(float32(i) * 0.23)
	}
	v1 := make(map[int][]byte)
	v2 := make(map[int][]byte)
	for i, img := range imgs {
		v1[i] = wantBody(t, 1, img)
		v2[i] = wantBody(t, 2, img)
	}

	p := newTestPool(t, verFactory(1, nil, nil), PoolConfig{
		Replicas:     2,
		CacheEntries: 256, // deliberately on: the swap must invalidate it
		Replica:      Config{MaxBatch: 4, QueueDepth: 256, RequestTimeout: time.Minute},
		SwapLoader: func(req SwapRequest) (ModelFactory, error) {
			if req.Ckpt != "v2" {
				return nil, fmt.Errorf("unknown ckpt %q", req.Ckpt)
			}
			return verFactory(2, nil, nil), nil
		},
	})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	bodies := make([][]byte, len(imgs))
	for i, img := range imgs {
		var buf bytes.Buffer
		if err := detect.EncodeRequest(&buf, img); err != nil {
			t.Fatal(err)
		}
		bodies[i] = buf.Bytes()
	}

	type outcome struct {
		img    int
		status int
		gen    string
		body   []byte
	}
	const clients = 8
	stop := make(chan struct{})
	// One slice per client, read after they stop: a cache hit is answered
	// without parsing its body, so no fixed buffer bounds what eight clients
	// collect in 200 ms.
	perClient := make([][]outcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				img := (c + i) % len(bodies)
				resp, err := http.Post(ts.URL+"/detect", "application/json", bytes.NewReader(bodies[img]))
				if err != nil {
					t.Errorf("client %d: transport error during swap: %v", c, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("client %d: read: %v", c, err)
					return
				}
				perClient[c] = append(perClient[c], outcome{img: img, status: resp.StatusCode, gen: resp.Header.Get("X-Skynet-Generation"), body: body})
			}
		}(c)
	}

	// Let generation-1 traffic flow, then swap under load.
	time.Sleep(100 * time.Millisecond)
	swapBody := strings.NewReader(`{"ckpt":"v2"}`)
	resp, err := http.Post(ts.URL+"/admin/swap", "application/json", swapBody)
	if err != nil {
		t.Fatal(err)
	}
	var sw SwapResponse
	if err := json.NewDecoder(resp.Body).Decode(&sw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sw.Error != "" {
		t.Fatalf("swap failed: status %d, %+v", resp.StatusCode, sw)
	}
	if sw.Generation != 2 || sw.Replicas != 2 {
		t.Fatalf("swap response %+v, want generation 2 with 2 replicas", sw)
	}
	// Post-swap traffic, then stop.
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	var outcomes []outcome
	for _, os := range perClient {
		outcomes = append(outcomes, os...)
	}

	var total, v1Count, v2Count int
	for _, o := range outcomes {
		total++
		if o.status != http.StatusOK {
			t.Fatalf("request dropped during swap: status %d body %q", o.status, o.body)
		}
		switch {
		case bytes.Equal(o.body, v1[o.img]):
			v1Count++
			if o.gen != "1" {
				t.Fatalf("v1 body arrived with generation header %q", o.gen)
			}
		case bytes.Equal(o.body, v2[o.img]):
			v2Count++
			if o.gen != "2" {
				t.Fatalf("v2 body arrived with generation header %q", o.gen)
			}
		default:
			t.Fatalf("image %d: body %q matches neither generation", o.img, o.body)
		}
	}
	if total == 0 || v1Count == 0 || v2Count == 0 {
		t.Fatalf("swap was not observed under load: %d total, %d v1, %d v2", total, v1Count, v2Count)
	}

	// The cutover is complete and the v1 cache is gone: every image —
	// including ones cached under generation 1 — now serves the v2 body.
	for i := range imgs {
		resp, err := http.Post(ts.URL+"/detect", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(body, v2[i]) {
			t.Fatalf("image %d after swap: body %q, want v2 %q", i, body, v2[i])
		}
	}
	m := p.Metrics()
	if m.Swaps != 1 || m.Generation != 2 {
		t.Fatalf("metrics after swap: swaps %d generation %d", m.Swaps, m.Generation)
	}
	if m.Failed != 0 {
		t.Fatalf("%d requests failed during the swap", m.Failed)
	}
}

// TestCacheHitNamesTheGenerationThatComputedIt: Swap publishes the new
// generation before it resets the cache, and a hit in that window is the old
// generation's answer — it must say so (the X-Skynet-Generation contract of the
// test above, which met this window once in a few hundred runs).
func TestCacheHitNamesTheGenerationThatComputedIt(t *testing.T) {
	p := newTestPool(t, verFactory(1, nil, nil), PoolConfig{Replicas: 1, CacheEntries: 8})
	img := testImage(0.4)
	if _, _, err := p.Submit(context.Background(), img); err != nil {
		t.Fatal(err)
	}
	// The window, held open: generation 2 is published, the cache not yet reset.
	next, err := p.buildGeneration(verFactory(2, nil, nil), 2)
	if err != nil {
		t.Fatal(err)
	}
	old := p.gen.Swap(next)
	defer old.close()
	if _, _, gen, ok := p.cached(hashFrame(img), time.Now()); !ok || gen != 1 {
		t.Fatalf("a hit before the cache reset: ok %v, generation %d; want the entry's own generation, 1", ok, gen)
	}
	p.cache.reset(next.id)
	if _, _, _, ok := p.cached(hashFrame(img), time.Now()); ok {
		t.Fatal("a generation-1 entry survived the reset")
	}
}

func TestPoolSwapFailureKeepsOldGenerationServing(t *testing.T) {
	p := newTestPool(t, verFactory(1, nil, nil), PoolConfig{Replicas: 2,
		Replica: Config{MaxBatch: 2, QueueDepth: 16}})
	gen := p.Generation()
	err := p.Swap(context.Background(), func() (detect.Model, *detect.Head, error) {
		return nil, nil, errors.New("boom")
	})
	if err == nil {
		t.Fatal("swap with a failing factory must error")
	}
	if p.Generation() != gen {
		t.Fatalf("failed swap advanced the generation to %d", p.Generation())
	}
	if _, _, err := p.Submit(context.Background(), testImage(0.6)); err != nil {
		t.Fatalf("old generation stopped serving after failed swap: %v", err)
	}
}

func TestPoolAdminSwapWithoutLoaderIs501(t *testing.T) {
	p := newTestPool(t, verFactory(1, nil, nil), PoolConfig{Replicas: 1,
		Replica: Config{QueueDepth: 8}})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/admin/swap", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("swap without loader: status %d, want 501", resp.StatusCode)
	}
}

func TestPoolDrainRefusesNewWork(t *testing.T) {
	p := newTestPool(t, verFactory(1, nil, nil), PoolConfig{Replicas: 2,
		Replica: Config{QueueDepth: 8}})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Submit(context.Background(), testImage(0.5)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: %d, want 503", hz.StatusCode)
	}
}

func TestPoolBadChannelCountIs400(t *testing.T) {
	p := newTestPool(t, verFactory(1, nil, nil), PoolConfig{Replicas: 1,
		Replica: Config{QueueDepth: 8, Channels: 3}})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	var buf bytes.Buffer
	if err := detect.EncodeRequest(&buf, tensor.New(5, 4, 4)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/detect", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("5-channel image: status %d, want 400", resp.StatusCode)
	}
}
