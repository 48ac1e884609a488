// Package serve exposes a trained detector as a concurrent service: the
// production form of the §6.3 system-level optimization. Pool is the one
// detection front door; behind it requests are validated and pre-processed
// on their callers' goroutines, admitted through one bounded queue (overflow
// sheds load instead of growing latency without bound), dynamically
// micro-batched by whichever inference worker is idle so one weight load
// serves many users, and decoded by their callers once the worker hands them
// back. Per-request failures (bad input, deadline, a panicking model) are
// carried inside the request and never stop a worker, so one poisoned
// request cannot take the service down. Admission, the default deadline, the
// worker loops and drain/close are the lane's (lane.go), shared with
// TrackService.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"skynet/internal/detect"
	"skynet/internal/tensor"
)

// Sentinel errors of the admission and data paths.
var (
	// ErrOverloaded means the admission queue was full; the caller should
	// back off and retry (HTTP 429).
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrDraining means the server is shutting down and no longer accepts
	// work (HTTP 503).
	ErrDraining = errors.New("serve: draining")
	// ErrInference wraps a failed (or panicked) inference stage (HTTP 500).
	ErrInference = errors.New("serve: inference failed")
	// ErrBadInput wraps a request rejected by pre-process validation (bad
	// rank, wrong channel count) — the caller's fault (HTTP 400), never a
	// server failure.
	ErrBadInput = errors.New("serve: bad input")
)

// Config tunes the detection engine, per inference worker. The zero value
// selects serving-appropriate defaults.
type Config struct {
	// MaxBatch caps the inference micro-batch; 0 selects 8. A batch is the
	// requests that queued while the previous forward ran: its size rises
	// with load by itself, and a lone request is forwarded at once.
	MaxBatch int
	// QueueDepth is the admission queue's depth per worker (the one queue
	// holds PoolConfig.Replicas times this); 0 selects 64. A full queue
	// rejects new requests with ErrOverloaded.
	QueueDepth int
	// RequestTimeout is the per-request deadline applied when the caller's
	// context has none; 0 selects 5s. Negative disables the default.
	RequestTimeout time.Duration
	// Channels, when positive, rejects images whose channel count differs
	// at pre-process with ErrBadInput (HTTP 400) — without it a wrong-shape
	// frame reaches the model and fails as a 500-class inference error. 0
	// accepts any channel count (models like the test stubs don't care).
	Channels int
}

func (c *Config) normalize() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	laneDefaults(&c.QueueDepth, &c.RequestTimeout)
}

// request is one in-flight detection riding a generation's lane; the
// prediction is read off frame once the ticket is done.
type request struct {
	ticket
	frame *detect.Frame
}

// generation is one model generation, the pool's whole detection engine: a
// lane with one worker per private model — an idle worker micro-batches
// whatever is queued through its own model — with pre-process (prepare) and
// decode (submitFrame) on the caller's goroutine either side of the queue. It
// has no HTTP surface — Pool is the front door — and is safe for concurrent
// use. Immutable once started: the pool publishes generations atomically and
// a request works against the one it loaded. Stop with drain (graceful) or
// close.
type generation struct {
	lane[*request]
	id       int64
	models   []detect.Model // worker i drives models[i], and nothing else does
	head     *detect.Head   // read-only: every caller decodes with it
	channels int            // Config.Channels
	hist     Histogram

	pre, post stageClock        // the stages the callers run, counted beside the workers'
	live      [][]*detect.Frame // worker i's batch scratch, reused across batches

	served  atomic.Int64
	failed  atomic.Int64
	expired atomic.Int64
}

// newGeneration starts the serving lane over the models: one worker each
// (Graph forwards share buffers and are not concurrency-safe), all on one
// queue of QueueDepth per worker.
func newGeneration(id int64, models []detect.Model, h *detect.Head, cfg Config) *generation {
	cfg.normalize()
	g := &generation{
		id:       id,
		models:   models,
		head:     h,
		channels: cfg.Channels,
		live:     make([][]*detect.Frame, len(models)),
	}
	for i := range g.live {
		g.live[i] = make([]*detect.Frame, 0, cfg.MaxBatch)
	}
	g.start(len(models), len(models)*cfg.QueueDepth, cfg.RequestTimeout, cfg.MaxBatch, g.inferBatch)
	return g
}

// inferBatch is a worker's half of a request: one forward per run of
// same-shape frames among the requests that still have a waiting caller (live
// marks the rest with their context's error). A batch is whoever was queued,
// so neighbours may differ in H×W; a request is neither failed nor answered
// by its neighbour's size.
func (g *generation) inferBatch(worker int, batch []*request) {
	for lo := 0; lo < len(batch); {
		live := g.live[worker][:0]
		hi := lo
		for ; hi < len(batch); hi++ {
			req := batch[hi]
			if !req.live() {
				continue
			}
			if len(live) > 0 && !req.frame.X.SameShape(live[0].X) {
				break
			}
			live = append(live, req.frame)
		}
		if err := inferBatchSafe(g.models[worker], live); err != nil {
			for _, req := range batch[lo:hi] {
				if req.err == nil {
					req.err = err
				}
			}
		}
		clear(live) // the scratch must not keep answered frames alive
		lo = hi
	}
}

// inferBatchSafe runs one batched forward, converting a model panic into
// ErrInference so a poisoned batch fails its requests, not the worker.
func inferBatchSafe(m detect.Model, frames []*detect.Frame) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: panic: %v", ErrInference, rec)
		}
	}()
	if len(frames) == 0 {
		return nil
	}
	if err := detect.InferBatch(m, frames); err != nil {
		return fmt.Errorf("%w: %v", ErrInference, err)
	}
	return nil
}

// prepare validates and pre-processes one image on the caller's goroutine,
// before admission: a malformed frame never takes a queue slot. owned hands
// img over (detect.Frame.Owned): it is read in place until the ticket is done.
func (g *generation) prepare(img *tensor.Tensor, owned bool) (*detect.Frame, error) {
	t0 := time.Now()
	f := &detect.Frame{Image: img, Owned: owned}
	err := detect.Preprocess(f)
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrBadInput, err)
	} else if c := g.channels; c > 0 && img.Dim(0) != c {
		err = fmt.Errorf("%w: image has %d channels, want %d", ErrBadInput, img.Dim(0), c)
	}
	g.pre.add(1, time.Since(t0))
	if err != nil {
		g.failed.Add(1)
		return nil, err
	}
	return f, nil
}

// submitFrame rides a prepared frame through the lane — admission, a
// micro-batched forward on whichever worker is idle, the hand-back — and
// decodes the prediction on the caller's goroutine, so a caller that gave up
// costs no decode. It blocks until the result is ready, the context fires
// (Config.RequestTimeout when ctx has no deadline), or the request is
// refused. A frame that comes back refused (ErrOverloaded, ErrDraining) was
// never touched and may be offered to the next generation.
func (g *generation) submitFrame(ctx context.Context, f *detect.Frame) (detect.Box, float64, error) {
	req := &request{frame: f}
	err := g.ride(ctx, req)
	if err == nil {
		t0 := time.Now()
		err = detect.Postprocess(g.head, f)
		g.post.add(1, time.Since(t0))
	}
	switch {
	case err == nil:
		g.hist.Observe(time.Since(req.enq))
		g.served.Add(1)
		return f.Box, f.Conf, nil
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrDraining): // the pool's to count
	case !reusable(err): // the caller's context fired, noticed here or by the worker
		g.expired.Add(1)
	default:
		g.hist.Observe(time.Since(req.enq))
		g.failed.Add(1)
	}
	return detect.Box{}, 0, err
}
