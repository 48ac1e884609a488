package serve

// Tests of the request path's buffer handling (http.go's reqBuf): a body is
// read once, hashed raw, parsed only on a cache miss, and its buffer goes
// back to the free list exactly when the request has left the pipeline.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"skynet/internal/detect"
	"skynet/internal/tensor"
)

func detectBody(t testing.TB, img *tensor.Tensor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := detect.EncodeRequest(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// post drives one request through a handler in-process and returns the
// recorder.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func pooledBufs() int { return reqBufs.Len() }

// TestTensorRoutesAnswer400 pins the two caller faults the reflective decode
// let through, on all three tensor routes — /detect on the pool's door, the
// /track ones on the tracking service's: a shape whose element product
// wraps to zero (it reached the model and came back 500) and bytes after the
// request object (ignored).
func TestTensorRoutesAnswer400(t *testing.T) {
	p := newSinglePool(t, &stubModel{}, Config{Channels: 3})
	ts := newTestTrackService(t, testTracker(false), TrackConfig{})
	detectDoor, trackDoor := p.Handler(), ts.Handler()
	seq := testTrackSequences(1, 2)[0]
	id, _, err := ts.Start(context.Background(), seq.Frames[0], seq.Boxes[0])
	if err != nil {
		t.Fatal(err)
	}
	ok := string(bytes.TrimSpace(detectBody(t, seq.Frames[1])))
	member := func(extra string) string { return ok[:len(ok)-1] + extra + "}" }
	for _, route := range []struct {
		door        http.Handler
		path, valid string
	}{
		{detectDoor, "/detect", ok},
		{trackDoor, "/track/start", member(`,"box":{"cx":0.5,"cy":0.5,"w":0.2,"h":0.2}`)},
		{trackDoor, "/track/step", member(`,"session":"` + id + `"`)},
	} {
		if rec := post(route.door, route.path, []byte(route.valid)); rec.Code != http.StatusOK {
			t.Fatalf("%s: the valid body answered %d: %s", route.path, rec.Code, rec.Body)
		}
		wrapped := `{"shape":[3,4294967296,4294967296],"data":[]` + route.valid[len(ok)-1:]
		for name, body := range map[string]string{
			"wrapped shape product": wrapped,
			"trailing bytes":        route.valid + " trailing garbage",
			"a second value":        route.valid + route.valid,
		} {
			if rec := post(route.door, route.path, []byte(body)); rec.Code != http.StatusBadRequest {
				t.Errorf("%s, %s: status %d, want 400 (%s)", route.path, name, rec.Code, rec.Body)
			}
		}
	}
}

// TestRepeatedBodyIsAnsweredBeforeParsing: the response cache is keyed on
// the raw body and consulted before the scanner. The proof is a body the
// scanner would reject: planted in the cache under its raw-byte key, it is
// answered 200 from there; without the entry it is a 400. A real repeated
// frame is then a hit that does not reach the model, and a hot swap drops
// raw-body entries like any others.
func TestRepeatedBodyIsAnsweredBeforeParsing(t *testing.T) {
	var forwards atomic.Int64
	p := newTestPool(t, verFactory(1, nil, &forwards), PoolConfig{Replicas: 1, CacheEntries: 16})
	h := p.Handler()

	garbage := []byte("not json at all")
	if rec := post(h, "/detect", garbage); rec.Code != http.StatusBadRequest {
		t.Fatalf("unparseable body: status %d, want 400", rec.Code)
	}
	planted := detect.Box{CX: 0.25, CY: 0.75, W: 0.5, H: 0.125}
	p.cache.put(p.Generation(), hashBody(garbage), planted, 0.5)
	rec := post(h, "/detect", garbage)
	if rec.Code != http.StatusOK {
		t.Fatalf("cached body: status %d (%s): the scanner ran before the cache", rec.Code, rec.Body)
	}
	if resp, err := detect.DecodeResponse(rec.Body); err != nil || resp.Box != planted || resp.Conf != 0.5 {
		t.Fatalf("cached body answered %+v, %v", resp, err)
	}

	body := detectBody(t, testImage(0.4))
	first := post(h, "/detect", body)
	second := post(h, "/detect", body)
	if first.Code != http.StatusOK || second.Code != http.StatusOK || !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("repeat: %d %q then %d %q", first.Code, first.Body, second.Code, second.Body)
	}
	if n := forwards.Load(); n != 1 {
		t.Fatalf("a frame sent twice reached the model %d times, want 1", n)
	}

	if err := p.Swap(verFactory(2, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if rec := post(h, "/detect", garbage); rec.Code != http.StatusBadRequest {
		t.Fatalf("after a swap the planted raw-body entry still answers: status %d", rec.Code)
	}
	after := post(h, "/detect", body)
	if want := wantBody(t, 2, testImage(0.4)); after.Code != http.StatusOK || !bytes.Equal(after.Body.Bytes(), want) {
		t.Fatalf("after a swap the repeated body answered %d %q, want the new generation's %q", after.Code, after.Body, want)
	}
	if gen := after.Header().Get("X-Skynet-Generation"); gen != strconv.FormatInt(p.Generation(), 10) {
		t.Fatalf("generation header %q after the swap", gen)
	}
}

// TestDeadlineLeavesTheBufferToTheGC is the ownership rule of reqBuf. A
// request that times out is handed back while it still sits in the lane
// (here: queued behind a forward that is blocked), so its buffer must not
// return to the free list, where the next request would scan into the frame
// the pipeline has yet to read; every outcome that proves the request has
// left the pipeline — an answer, a 400 — does return it. Run under -race:
// the request that follows the timeout writes a fresh buffer while the
// abandoned one is still referenced from the queue.
func TestDeadlineLeavesTheBufferToTheGC(t *testing.T) {
	gate := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	p := newSinglePool(t, &stubModel{gate: gate}, Config{MaxBatch: 1, QueueDepth: 8, RequestTimeout: 50 * time.Millisecond})
	t.Cleanup(release) // before the pool's Close, which waits for the forward
	h := p.Handler()

	// Start from an empty list so the count below is this test's alone.
	for reqBufs.Len() > 0 {
		reqBufs.Get()
	}

	for i := 0; i < 3; i++ { // the first blocks in Forward, the others queue behind it
		if rec := post(h, "/detect", detectBody(t, testImage(0.1*float32(i+1)))); rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("request %d behind a blocked model: status %d, want 504", i, rec.Code)
		}
		if n := pooledBufs(); n != 0 {
			t.Fatalf("a timed-out request put its buffer back (%d pooled) while the lane still holds it", n)
		}
	}
	if rec := post(h, "/detect", []byte(`{"shape":[3,2,2],"data":[1]}`)); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", rec.Code)
	}
	if n := pooledBufs(); n != 1 {
		t.Fatalf("a rejected request's buffer was not recycled (%d pooled)", n)
	}
	release()
	p2 := newSinglePool(t, &stubModel{}, Config{})
	if rec := post(p2.Handler(), "/detect", detectBody(t, testImage(0.7))); rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if n := pooledBufs(); n != 1 {
		t.Fatalf("an answered request did not reuse and return the pooled buffer (%d pooled)", n)
	}
}

// TestRequestPathAllocationCeilings gates the request path's allocation
// count in `make ci`, through Pool.Handler() and httptest, without the bench
// host: one /detect miss and one hit, request construction and recorder
// included (≈ 15 of each count). A miss reads 26 and a hit 22; under -race,
// where sync.Pool (net/http's buffers) drops a share of Puts, up to 31 and 27.
// The request's own record, ticket, deadline and frame are recycled, so what
// is left beyond net/http and encoding/json is the model's output and the
// cache entry a miss stores.
func TestRequestPathAllocationCeilings(t *testing.T) {
	const (
		missCeiling = 32
		hitCeiling  = 28
	)
	p := newTestPool(t, verFactory(1, nil, nil), PoolConfig{Replicas: 1, CacheEntries: 4096,
		Replica: Config{Channels: 3}})
	h := p.Handler()
	const runs = 50
	bodies := make([][]byte, runs+2)
	for i := range bodies {
		bodies[i] = detectBody(t, testImage(float32(i)*0.003))
	}
	serve := func(body []byte) {
		if rec := post(h, "/detect", body); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve(bodies[runs+1]) // warm the buffer, the lane and the model
	next := 0
	miss := testing.AllocsPerRun(runs, func() { serve(bodies[next]); next++ })
	hit := testing.AllocsPerRun(runs, func() { serve(bodies[0]) })
	t.Logf("allocations per request: miss %.1f, hit %.1f", miss, hit)
	if miss > missCeiling {
		t.Errorf("a /detect miss allocates %.1f times, ceiling %d", miss, missCeiling)
	}
	if hit > hitCeiling {
		t.Errorf("a /detect hit allocates %.1f times, ceiling %d", hit, hitCeiling)
	}
}
