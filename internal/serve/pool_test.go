package serve

// Replica-pool tests, written to run under -race: content-hash routing is
// stable, a full home replica spills to siblings before the pool 429s,
// duplicate frames come out of the response cache, and — the acceptance
// headline — a model hot-swap under live HTTP load drops zero requests,
// serves every response from exactly one generation's weights, and
// invalidates the cache at cutover. N-replica responses are pinned
// byte-identical to the 1-replica configuration.

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

// verFactory builds one generation's replicas; every instance shares the
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

func TestPoolRoutingIsContentStable(t *testing.T) {
	// Track which model instance saw which frame: the same frame must hit
	// the same replica every time (no cache, so every submit is routed).
	var mu sync.Mutex
	seen := make(map[int][]float32) // replica ordinal -> frame sums
	ordinal := 0
	factory := func() (detect.Model, *detect.Head, error) {
		id := ordinal
		ordinal++
		return &recordingModel{id: id, mu: &mu, seen: seen}, detect.NewHead(nil), nil
	}
	p := newTestPool(t, factory, PoolConfig{Replicas: 3, CacheEntries: -1,
		Replica: Config{MaxBatch: 1, QueueDepth: 16}})

	imgs := []*tensor.Tensor{testImage(0.1), testImage(0.5), testImage(0.9)}
	for round := 0; round < 4; round++ {
		for _, img := range imgs {
			if _, _, err := p.Submit(context.Background(), img); err != nil {
				t.Fatal(err)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	owner := make(map[float32]int)
	for id, sums := range seen {
		for _, s := range sums {
			if prev, ok := owner[s]; ok && prev != id {
				t.Fatalf("frame %v served by replicas %d and %d — routing is not content-stable", s, prev, id)
			}
			owner[s] = id
		}
	}
}

// recordingModel notes the content signature of every frame it serves.
type recordingModel struct {
	id   int
	mu   *sync.Mutex
	seen map[int][]float32
}

func (m *recordingModel) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	b := x.Dim(0)
	per := x.Dim(1) * x.Dim(2) * x.Dim(3)
	out := tensor.New(b, 10, 1, 1)
	for i := 0; i < b; i++ {
		var sum float32
		for _, v := range x.Data[i*per : (i+1)*per] {
			sum += v
		}
		m.mu.Lock()
		m.seen[m.id] = append(m.seen[m.id], sum)
		m.mu.Unlock()
		for c := 0; c < 10; c++ {
			out.Data[i*10+c] = sum / float32(per) * float32(c+1)
		}
	}
	return out
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

func TestPoolSpillsToSiblingBeforeShedding(t *testing.T) {
	gate := make(chan struct{})
	p := newTestPool(t, verFactory(1, gate, nil), PoolConfig{Replicas: 2, CacheEntries: -1,
		Replica: Config{QueueDepth: 1, MaxBatch: 1, RequestTimeout: -1}})

	// With every forward gated shut, keep submitting distinct frames until
	// the pool sheds: before that point, overflow off one replica must have
	// landed on the other.
	var wg sync.WaitGroup
	subCtx, subCancel := context.WithCancel(context.Background())
	defer subCancel()
	shedc := make(chan struct{}, 1)
	for i := 0; ; i++ {
		i := i
		if i > 64 {
			t.Fatal("pool absorbed 64 requests with 2 gated single-slot replicas")
		}
		done := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := p.Submit(subCtx, testImage(float32(i)*0.01))
			done <- err
		}()
		select {
		case err := <-done:
			if errors.Is(err, ErrOverloaded) {
				shedc <- struct{}{}
			} else if err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		case <-time.After(50 * time.Millisecond):
			// Accepted and now blocked in the pipeline — keep pushing.
			continue
		}
		if len(shedc) > 0 {
			break
		}
	}
	m := p.Metrics()
	if m.Rejected == 0 {
		t.Fatal("pool never shed")
	}
	if m.SiblingSheds == 0 {
		t.Fatal("pool shed without ever spilling the home replica's overflow to its sibling")
	}
	// Both replicas took work: the spill really landed on the sibling.
	close(gate)
	subCancel()
	wg.Wait()
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
