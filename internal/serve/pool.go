package serve

// The detection service: one admission queue and N inference workers. A
// Graph forward shares buffers and is not concurrency-safe, so one model can
// never use more than one core for the forward pass; the Pool therefore holds
// N private model instances, each driven by its own worker, all taking
// requests off the one bounded queue (a generation, serve.go). An idle worker
// takes whatever is queued, so no request waits while a worker is free, and
// the pool sheds with 429 only when that queue is full. In front of the queue
// sit the response cache, keyed by a 128-bit hash of the frame, and — on the
// HTTP door — a semaphore that bounds requests in flight before their bodies
// are read.
//
// Model hot-swap is generation-based: Swap builds a complete new generation
// from a ModelFactory, atomically publishes it, invalidates the response
// cache, and only then drains the old one — in-flight requests finish on the
// weights they started with, new arrivals queue for the new weights, and no
// request is ever dropped. A request that loses the race (refused because the
// generation it loaded began draining) retries on the freshly published one
// instead of failing.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"skynet/internal/detect"
	"skynet/internal/tensor"
)

// ModelFactory builds one private model+head pair. The pool calls it once
// per inference worker — a model is never shared between workers, which is
// what lets N forwards run concurrently — and again for every worker of a
// hot-swap's new generation. The heads must be interchangeable: the
// generation decodes every answer with one of them.
type ModelFactory func() (detect.Model, *detect.Head, error)

// PoolConfig tunes a Pool. The zero value selects serving defaults.
type PoolConfig struct {
	// Replicas is the number of inference workers, each with a private model
	// instance; 0 selects NumCPU capped at 8.
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
		c.Replicas = runtime.NumCPU()
		if c.Replicas > 8 {
			c.Replicas = 8
		}
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
}

const (
	// inflightSlack is how many HTTP requests per worker may be in read,
	// parse or encode beyond what the admission queue holds.
	inflightSlack = 64
	// swapDrainTimeout bounds how long Swap waits for the old generation to
	// drain when its context has no deadline; on expiry the old generation is
	// closed hard.
	swapDrainTimeout = 30 * time.Second
)

// Pool is the detection service: N inference workers with private models on
// one admission queue, a generation-scoped response cache, and zero-drop
// model hot-swap. Create with NewPool, stop with Drain or Close.
type Pool struct {
	cfg    PoolConfig
	gen    atomic.Pointer[generation] // there is always one, from NewPool on
	swapMu sync.Mutex                 // serializes Swap/Drain/Close generation turnover
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
	swapRetries atomic.Int64 // raced a swap; resubmitted on the new generation
	swaps       atomic.Int64

	track *TrackService
}

// NewPool builds cfg.Replicas models from the factory and starts serving.
func NewPool(factory ModelFactory, cfg PoolConfig) (*Pool, error) {
	if factory == nil {
		return nil, errors.New("serve: pool needs a model factory")
	}
	cfg.normalize()
	p := &Pool{cfg: cfg, hist: NewHistogram()}
	g, err := p.buildGeneration(factory, 1)
	if err != nil {
		return nil, err
	}
	p.gen.Store(g)
	p.cache = newRespCache(cfg.CacheEntries, g.id)
	p.inflight = make(chan struct{}, cap(g.in)+inflightSlack*cfg.Replicas)
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

// buildGeneration builds every worker's model before it starts the lane, so
// a failing factory has started nothing.
func (p *Pool) buildGeneration(factory ModelFactory, id int64) (*generation, error) {
	models := make([]detect.Model, p.cfg.Replicas)
	var head *detect.Head
	for i := range models {
		m, h, err := factory()
		if err == nil && (m == nil || h == nil) {
			err = errors.New("model and head are required")
		}
		if err != nil {
			return nil, fmt.Errorf("serve: building model %d: %w", i, err)
		}
		models[i], head = m, h
	}
	return newGeneration(id, models, head, p.cfg.Replica), nil
}

// Attach co-hosts a tracking service on the pool's HTTP front end and folds
// its counters into /metrics. Tracking is stateful (sessions pin their
// template features), so it stays a service of its own beside the detection
// workers: call before Handler.
func (p *Pool) Attach(ts *TrackService) { p.track = ts }

// Submit runs one detection through the pool: the cache, then the serving
// generation's queue, then — if that generation began draining under it —
// the freshly swapped-in one. The image stays the caller's: the engine works
// on a copy.
func (p *Pool) Submit(ctx context.Context, img *tensor.Tensor) (detect.Box, float64, error) {
	t0 := time.Now()
	key := hashFrame(img)
	if box, conf, _, ok := p.cached(key, t0); ok {
		return box, conf, nil
	}
	box, conf, _, err := p.submit(ctx, key, img, false, t0)
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

// submit queues a cache miss and stores the answer under key, returning it
// with the serving generation's ID (for the X-Skynet-Generation response
// header and the swap tests). owned says img is the front door's own buffer,
// which the engine may read in place (detect.Frame.Owned).
func (p *Pool) submit(ctx context.Context, key frameKey, img *tensor.Tensor, owned bool, t0 time.Time) (detect.Box, float64, int64, error) {
	g := p.gen.Load()

	// Validate and pre-process once, on the caller's goroutine: every
	// generation shares one Config, so a frame prepared here rides any.
	f, err := g.prepare(img, owned)
	if err != nil {
		return detect.Box{}, 0, g.id, err
	}

	// A swap mid-request can leave the loaded generation draining; one retry
	// per published generation is enough, and the attempt bound makes a
	// pathological swap storm fail loudly instead of looping.
	const maxSwapRaces = 4
	for attempt := 0; attempt < maxSwapRaces; attempt++ {
		box, conf, err := g.submitFrame(ctx, f)
		switch {
		case err == nil:
			p.cache.put(g.id, key, box, conf)
			p.hist.Observe(time.Since(t0))
			return box, conf, g.id, nil
		case errors.Is(err, ErrOverloaded):
			p.rejected.Add(1)
			return detect.Box{}, 0, g.id, err
		case !errors.Is(err, ErrDraining):
			// The request's own failure (deadline, inference error).
			return detect.Box{}, 0, g.id, err
		}
		// Old generation mid-swap: refused at admission, or admitted and then
		// handed back unserved by a hard close.
		next := p.gen.Load()
		if next == g {
			// Draining with no successor: the pool itself is shutting down.
			return detect.Box{}, 0, g.id, ErrDraining
		}
		g = next
		p.swapRetries.Add(1)
	}
	return detect.Box{}, 0, g.id, ErrDraining
}

// Swap cuts the pool over to a new model generation with zero dropped
// requests: the new generation is built and published first, the response
// cache resets to it, and only then does the old generation drain (in-flight
// requests finish on their original weights). One swap runs at a time; a
// failed factory leaves the old generation serving untouched.
func (p *Pool) Swap(ctx context.Context, factory ModelFactory) error {
	if factory == nil {
		return errors.New("serve: swap needs a model factory")
	}
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	if p.closed.Load() {
		return ErrDraining
	}
	old := p.gen.Load()
	g, err := p.buildGeneration(factory, old.id+1)
	if err != nil {
		return err
	}
	p.gen.Store(g)
	p.cache.reset(g.id)
	p.swaps.Add(1)

	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, swapDrainTimeout)
		defer cancel()
	}
	//skynet:nolint lockheld -- swapMu serializes admin ops (Swap/Drain/Close) only: the request path reads p.gen atomically and never takes it, so the old generation drains while the new one (already published) serves lock-free
	if err := old.drain(ctx); err != nil {
		// The budget ran out; hard-stop the old generation so it cannot
		// leak. The new one is already serving.
		//skynet:nolint lockheld -- swapMu serializes admin ops only; hard-stopping stragglers cannot stall the request path
		old.close()
		return fmt.Errorf("serve: draining generation %d: %w", old.id, err)
	}
	return nil
}

// Generation returns the ID of the currently serving generation.
func (p *Pool) Generation() int64 { return p.gen.Load().id }

// Replicas returns the number of inference workers.
func (p *Pool) Replicas() int { return p.cfg.Replicas }

// Drain gracefully shuts the pool down: new work is refused, admitted
// requests complete. Idempotent; an attached TrackService is drained too.
func (p *Pool) Drain(ctx context.Context) error {
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	p.closed.Store(true)
	//skynet:nolint lockheld -- swapMu serializes admin ops only; holding it for the whole drain is what makes Drain/Swap mutually exclusive
	err := p.gen.Load().drain(ctx)
	if p.track != nil {
		//skynet:nolint lockheld -- swapMu serializes admin ops only; see the drain waiver above
		if terr := p.track.Drain(ctx); err == nil {
			err = terr
		}
	}
	return err
}

// Close abandons what is queued immediately. Prefer Drain.
func (p *Pool) Close() {
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	p.closed.Store(true)
	//skynet:nolint lockheld -- swapMu serializes admin ops only; Close abandons the generation and must exclude a concurrent Swap
	p.gen.Load().close()
	if p.track != nil {
		//skynet:nolint lockheld -- swapMu serializes admin ops only; see the close waiver above
		p.track.Close()
	}
}

// Draining reports whether the pool has begun shutting down.
func (p *Pool) Draining() bool { return p.closed.Load() }
