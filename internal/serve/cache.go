package serve

// Response cache for duplicate frames. Video workloads — the paper's DAC-SDC
// stream, a stalled UAV camera, clients retrying the same frame — repeat
// input frames verbatim, and a detection is a pure function of the frame and
// the model generation. The cache keys on a 128-bit content hash (two
// independent FNV-1a streams, so a single-stream collision cannot alias two
// distinct frames) and is scoped to the pool's model generation: a hot-swap
// advances the generation, which atomically invalidates every entry produced
// by the old weights. Each front door hashes what it is handed: the HTTP
// door the raw request body (hashBody) — so a repeated body is answered
// before a byte of it is parsed — and the in-process Pool.Submit the tensor
// (hashFrame: shape + raw float bits). The two key spaces are kept apart, so
// the same frame through both doors is two entries and a body can never be
// answered from a tensor's.

import (
	"container/list"
	"math"
	"sync"

	"skynet/internal/detect"
	"skynet/internal/tensor"
)

// frameKey is the 128-bit content identity of one input frame.
type frameKey struct {
	lo, hi uint64
}

// FNV-1a constants; the second stream uses a different offset basis so the
// two 64-bit digests fail independently. bodyDomain perturbs both bases for
// keys taken from raw bodies.
const (
	fnvOffset  = 0xcbf29ce484222325
	fnvOffset2 = 0x6c62272e07bb0142
	fnvPrime   = 0x100000001b3
	bodyDomain = 0x9e3779b97f4a7c15
)

// hashBody digests a raw request body. Bodies that differ in any byte —
// whitespace, member order, the spelling of a number — are different keys
// for the same frame: a miss, never a wrong answer.
func hashBody(body []byte) frameKey {
	lo, hi := uint64(fnvOffset^bodyDomain), uint64(fnvOffset2^bodyDomain)
	for _, b := range body {
		lo = (lo ^ uint64(b)) * fnvPrime
		hi = (hi ^ uint64(b)) * fnvPrime
	}
	return frameKey{lo: lo, hi: hi}
}

// hashFrame digests a [C,H,W] tensor's shape and content. The float data is
// hashed by bit pattern, so bitwise-equal frames (the serving determinism
// contract) always collide and nothing else realistically does.
func hashFrame(img *tensor.Tensor) frameKey {
	lo, hi := uint64(fnvOffset), uint64(fnvOffset2)
	step := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			b := (v >> s) & 0xff
			lo = (lo ^ b) * fnvPrime
			hi = (hi ^ b) * fnvPrime
		}
	}
	for _, d := range img.Shape() {
		step(uint64(d))
	}
	for _, f := range img.Data {
		step(uint64(math.Float32bits(f)))
	}
	return frameKey{lo: lo, hi: hi}
}

// cachedResponse is one stored detection.
type cachedResponse struct {
	key  frameKey
	box  detect.Box
	conf float64
}

// respCache is a bounded LRU of successful detections, scoped to one model
// generation. get/put are safe for concurrent use; a put tagged with a stale
// generation (a response computed by old weights landing after a swap's
// cutover) is dropped, so a hot-swap can never serve old-model results out
// of the new generation's cache.
type respCache struct {
	mu      sync.Mutex
	cap     int
	gen     int64
	order   *list.List // front = most recent
	entries map[frameKey]*list.Element

	hits   int64
	misses int64
}

func newRespCache(capacity int, gen int64) *respCache {
	if capacity <= 0 {
		return nil
	}
	return &respCache{
		cap:     capacity,
		gen:     gen,
		order:   list.New(),
		entries: make(map[frameKey]*list.Element, capacity),
	}
}

// get returns the cached detection for key, if present, and the generation
// that computed it — the cache's own, read under the same lock: every entry
// it holds was put under it.
func (c *respCache) get(key frameKey) (detect.Box, float64, int64, bool) {
	if c == nil {
		return detect.Box{}, 0, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return detect.Box{}, 0, 0, false
	}
	c.order.MoveToFront(el)
	c.hits++
	e := el.Value.(*cachedResponse)
	return e.box, e.conf, c.gen, true
}

// put stores one successful detection computed under generation gen. Stale
// generations are ignored; the oldest entry is evicted at capacity.
func (c *respCache) put(gen int64, key frameKey, box detect.Box, conf float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value = &cachedResponse{key: key, box: box, conf: conf}
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cachedResponse).key)
	}
	c.entries[key] = c.order.PushFront(&cachedResponse{key: key, box: box, conf: conf})
}

// reset drops every entry and advances the cache to a new generation (the
// hot-swap cutover path).
func (c *respCache) reset(gen int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen = gen
	c.order.Init()
	clear(c.entries)
}

// stats snapshots the cache counters.
func (c *respCache) stats() CacheMetrics {
	if c == nil {
		return CacheMetrics{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheMetrics{Hits: c.hits, Misses: c.misses, Entries: c.order.Len(), Cap: c.cap}
}

// CacheMetrics is the response-cache slice of the pool's /metrics snapshot.
type CacheMetrics struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
	Cap     int   `json:"cap"`
}
