package serve

// The detection service: one admission queue and N inference workers (the
// engine, serve.go) sharing one model (a generation), as the paper's
// deployments keep one copy of the weights: a forward spreads over the cores
// and writes nothing into the model, each on an executor of its own. An idle
// worker takes whatever is queued, so no request waits while a worker is
// free, and the pool sheds with 429 only when that queue is full. In front of
// the queue sit the response cache, keyed by a 128-bit hash of the frame, and
// — on the HTTP door — a semaphore that bounds requests in flight before
// their bodies are read.
//
// Model hot-swap publishes a model, not a second engine: Swap builds the new
// generation's model from a ModelFactory, atomically publishes it and
// invalidates the response cache. The one lane and its workers serve the
// pool's whole life: a forward already running finishes on the weights it
// started with, and every batch a worker begins afterwards — requests queued
// before the swap included — runs on the new ones. No request is refused or
// retried because of a swap, and Swap waits for nothing.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"skynet/internal/detect"
	"skynet/internal/tensor"
)

// ModelFactory builds a generation's model+head pair. The pool calls it once
// per generation — NewPool's, and each hot-swap's —, whatever the worker
// count: every worker runs its forwards on the serving generation's one model,
// side by side, so the model's Forward(x, false) must be safe for concurrent
// use, as *nn.Graph's and *quant.QuantizedModel's are.
type ModelFactory func() (detect.Model, *detect.Head, error)

// PoolConfig tunes a Pool. The zero value selects serving defaults.
type PoolConfig struct {
	// Replicas is the number of inference workers, all sharing the
	// generation's one model; 0 selects GOMAXPROCS capped at 8.
	Replicas int
	// Replica tunes the engine (batching, deadline, and the admission queue's
	// depth per worker).
	Replica Config
	// CacheEntries bounds the response cache; 0 selects 4096, negative
	// disables caching.
	CacheEntries int
	// SwapLoader, when set, enables POST /admin/swap: it turns the wire
	// request into the factory for the next generation. Nil disables the
	// endpoint (501).
	SwapLoader func(SwapRequest) (ModelFactory, error)
}

func (c *PoolConfig) normalize() {
	if c.Replicas <= 0 {
		c.Replicas = min(runtime.GOMAXPROCS(0), 8)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
}

// inflightSlack is how many HTTP requests per worker may be in read, parse
// or encode beyond what the admission queue holds.
const inflightSlack = 64

// Pool is the detection service: N inference workers sharing one model on
// one admission queue, a generation-scoped response cache, and zero-drop
// model hot-swap. Create with NewPool, stop with Drain or Close.
type Pool struct {
	cfg    PoolConfig
	eng    engine
	gen    atomic.Pointer[generation] // the serving generation; there is always one, from NewPool on
	swapMu sync.Mutex                 // orders Swap against Drain/Close
	closed atomic.Bool

	cache *respCache
	hist  *Histogram // pool-level success latency, cache hits included: from the key's hash (HTTP: the body is read, not yet parsed) to the answer

	// inflight is the HTTP-side admission semaphore: it bounds admitted HTTP
	// requests — read and parse included, which matters: on a saturated box
	// the queue that actually grows without bound is handler goroutines
	// parked in a body read before they ever reach the admission queue, whose
	// bound cannot see them. It holds the queue's capacity plus inflightSlack
	// per worker; in-process Submit callers are never subject to it.
	inflight chan struct{}

	cacheServed atomic.Int64
	rejected    atomic.Int64 // shed with 429: the queue, or the semaphore, was full
	swaps       atomic.Int64
}

// NewPool builds the model from the factory, once, and starts serving it on
// cfg.Replicas workers.
func NewPool(factory ModelFactory, cfg PoolConfig) (*Pool, error) {
	if factory == nil {
		return nil, errors.New("serve: pool needs a model factory")
	}
	cfg.normalize()
	g, err := newGeneration(factory, 1)
	if err != nil {
		return nil, err
	}
	p := &Pool{cfg: cfg, hist: NewHistogram(), cache: newRespCache(cfg.CacheEntries, g.id)}
	p.gen.Store(g)
	p.eng.start(cfg.Replicas, cfg.Replica, p.gen.Load)
	p.inflight = make(chan struct{}, cap(p.eng.in)+inflightSlack*cfg.Replicas)
	return p, nil
}

// acquire takes one HTTP-inflight slot, reporting false when the pool is
// already working its bound — the caller sheds without paying for a read.
func (p *Pool) acquire() bool {
	select {
	case p.inflight <- struct{}{}:
		return true
	default:
		return false
	}
}

func (p *Pool) release() { <-p.inflight }

// Submit runs one detection through the pool: the cache, then the engine's
// queue. The image stays the caller's: a cache miss hands the engine a copy,
// because Submit can return on the caller's deadline while the request is
// still queued, and the caller may then reuse img. This is the one copy of a
// frame on the detection path, into the record's own.
func (p *Pool) Submit(ctx context.Context, img *tensor.Tensor) (detect.Box, float64, error) {
	t0 := time.Now()
	key := hashFrame(img)
	if box, conf, _, ok := p.cached(key, t0); ok {
		return box, conf, nil
	}
	req := requests.Get()
	req.own = img.CloneInto(req.own)
	box, conf, _, err := p.submit(ctx, key, req, req.own, t0)
	if reusable(err) {
		req.frame, req.ctx, req.gen = detect.Frame{}, nil, nil // drop what the last request referenced
		requests.Put(req)
	}
	return box, conf, err
}

// cached answers a request from the response cache, if it can, together
// with the ID of the generation that computed the answer — the cache's, not
// p.gen's: a swap publishes before it resets the cache, and a hit in between
// is still the old generation's. Both front doors ask it first, with the key
// of what they were handed; t0 is when the request's work began, for the
// latency histogram.
func (p *Pool) cached(key frameKey, t0 time.Time) (detect.Box, float64, int64, bool) {
	box, conf, gen, ok := p.cache.get(key)
	if ok {
		p.cacheServed.Add(1)
		p.hist.Observe(time.Since(t0))
	}
	return box, conf, gen, ok
}

// submit queues a cache miss in req and stores the answer under key,
// returning it with the ID of the generation that computed it — the serving
// one when none did — for the X-Skynet-Generation response header. img is
// handed over: it must be a buffer the front door owns, which the engine
// reads in place.
func (p *Pool) submit(ctx context.Context, key frameKey, req *request, img *tensor.Tensor, t0 time.Time) (detect.Box, float64, int64, error) {
	var g *generation
	err := p.eng.prepare(req, img)
	if err == nil {
		g, err = p.eng.submitFrame(ctx, req)
	}
	if g == nil {
		g = p.gen.Load()
	}
	switch {
	case err == nil:
		p.cache.put(g.id, key, req.frame.Box, req.frame.Conf)
		p.hist.Observe(time.Since(t0))
		return req.frame.Box, req.frame.Conf, g.id, nil
	case errors.Is(err, ErrOverloaded):
		p.rejected.Add(1)
	}
	return detect.Box{}, 0, g.id, err
}

// Swap cuts the pool over to a new model generation: the factory builds the
// model, the pool publishes it and resets the response cache, and Swap
// returns. A forward already running finishes on the old weights; every
// batch begun afterwards, requests queued before the swap included, runs on
// the new ones. One swap runs at a time; a failed factory leaves the old
// generation serving untouched, and once Drain or Close has begun Swap
// returns ErrDraining.
func (p *Pool) Swap(factory ModelFactory) error {
	if factory == nil {
		return errors.New("serve: swap needs a model factory")
	}
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	if p.closed.Load() {
		return ErrDraining
	}
	g, err := newGeneration(factory, p.gen.Load().id+1)
	if err != nil {
		return err
	}
	p.gen.Store(g)
	p.cache.reset(g.id)
	p.swaps.Add(1)
	return nil
}

// Generation returns the ID of the currently serving generation.
func (p *Pool) Generation() int64 { return p.gen.Load().id }

// Replicas returns the number of inference workers.
func (p *Pool) Replicas() int { return p.cfg.Replicas }

// Drain gracefully shuts the pool down: new work is refused, admitted
// requests complete. Idempotent.
func (p *Pool) Drain(ctx context.Context) error {
	p.shutdown()
	return p.eng.drain(ctx)
}

// Close abandons what is queued immediately. Prefer Drain.
func (p *Pool) Close() {
	p.shutdown()
	p.eng.close()
}

// shutdown marks the pool closed once no Swap is under way, so that none
// publishes after it.
func (p *Pool) shutdown() {
	p.swapMu.Lock()
	p.closed.Store(true)
	p.swapMu.Unlock()
}

// Draining reports whether the pool has begun shutting down.
func (p *Pool) Draining() bool { return p.closed.Load() }
