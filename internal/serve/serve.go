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
	"strconv"
	"sync/atomic"
	"time"

	"skynet/internal/detect"
	"skynet/internal/pipeline"
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

// request is one detection's record, recycled (requests; the HTTP door's is
// in its reqBuf): the frame that rides the engine's lane, whose prediction is
// read once the worker has handed it back, the generation whose model ran
// it, and Submit's copy of the caller's image, which the frame reads and the
// next Submit reuses.
type request struct {
	ticket
	frame detect.Frame
	gen   *generation // set by the worker before the hand-back; read only then (see engine.submitFrame)
	own   *tensor.Tensor
}

var requests = tensor.FreeList[request]{Alloc: func() *request { return &request{ticket: newTicket()} }}

// generation is one model generation, a value: the model every worker's
// forwards run on, side by side, and the head its answers decode with. The
// pool publishes generations atomically and never writes one; a worker runs
// a whole batch on the generation it loaded.
type generation struct {
	id       int64
	idHeader []string     // id as the X-Skynet-Generation value, built once
	model    detect.Model // every worker's: its forwards are safe for concurrent use
	head     *detect.Head // read-only: every caller decodes with it
}

// newGeneration builds a generation's model from the factory.
func newGeneration(factory ModelFactory, id int64) (*generation, error) {
	m, h, err := factory()
	if err == nil && (m == nil || h == nil) {
		err = errors.New("model and head are required")
	}
	if err != nil {
		return nil, fmt.Errorf("serve: building the model: %w", err)
	}
	return &generation{id: id, idHeader: []string{strconv.FormatInt(id, 10)}, model: m, head: h}, nil
}

// engine is the pool's detection engine, one for the pool's life whatever
// it serves: a lane whose workers micro-batch whatever is queued through the
// serving generation's model, beside each other's forwards, with pre-process
// (prepare) and decode (submitFrame) on the caller's goroutine either side of
// the queue, and the counters of all three. It has no HTTP surface — Pool is
// the front door — and is safe for concurrent use.
type engine struct {
	lane[*request]
	channels int // Config.Channels
	hist     Histogram

	pre, post pipeline.StageClock // the stages the callers run, counted beside the workers'
	live      [][]*detect.Frame   // worker i's batch scratch, reused across batches

	served  atomic.Int64
	failed  atomic.Int64
	expired atomic.Int64
}

// start begins the engine's workers, all on one queue of QueueDepth per
// worker; each runs its batches on the generation serving returns when the
// batch begins.
func (e *engine) start(workers int, cfg Config, serving func() *generation) {
	cfg.normalize()
	e.channels = cfg.Channels
	e.live = make([][]*detect.Frame, workers)
	for i := range e.live {
		e.live[i] = make([]*detect.Frame, 0, cfg.MaxBatch)
	}
	e.lane.start(workers, workers*cfg.QueueDepth, cfg.RequestTimeout, cfg.MaxBatch, func(worker int, batch []*request) {
		e.inferBatch(worker, serving(), batch)
	})
}

// inferBatch is a worker's half of a request: one forward on g's model per
// run of same-shape frames among the requests that still have a waiting
// caller (live marks the rest with their context's error), each of which it
// tags with g. A batch is whoever was queued, so neighbours may differ in
// H×W; a request is neither failed nor answered by its neighbour's size.
func (e *engine) inferBatch(worker int, g *generation, batch []*request) {
	for lo := 0; lo < len(batch); {
		live := e.live[worker][:0]
		hi := lo
		for ; hi < len(batch); hi++ {
			req := batch[hi]
			if !req.live() {
				continue
			}
			if len(live) > 0 && !req.frame.Image.SameShape(live[0].Image) {
				break
			}
			req.gen = g
			live = append(live, &req.frame)
		}
		if err := inferBatchSafe(g.model, live); err != nil {
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

// prepare validates one image into req's frame on the caller's goroutine,
// before admission: a malformed frame never takes a queue slot. The frame
// takes img over as it is (see detect.Frame): the caller must not write it
// while the request may still be queued or in a forward.
func (e *engine) prepare(req *request, img *tensor.Tensor) error {
	t0 := time.Now()
	req.frame = detect.Frame{Image: img}
	err := detect.Preprocess(&req.frame)
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrBadInput, err)
	} else if c := e.channels; c > 0 && img.Dim(0) != c {
		err = fmt.Errorf("%w: image has %d channels, want %d", ErrBadInput, img.Dim(0), c)
	}
	e.pre.Add(1, time.Since(t0))
	if err != nil {
		e.failed.Add(1)
	}
	return err
}

// submitFrame rides a prepared request through the lane — admission, a
// micro-batched forward on whichever worker is idle, the hand-back — and
// decodes the prediction on the caller's goroutine with the head of the
// generation that computed it, so a caller that gave up costs no decode. It
// blocks until the result is ready, the context fires (Config.RequestTimeout
// when ctx has no deadline), or the request is refused, and returns that
// generation: nil when the lane handed the request back unanswered. The
// worker tags req.gen before the hand-back, so it is read only once ride has
// returned no error: after a context error the worker may still be writing it.
func (e *engine) submitFrame(ctx context.Context, req *request) (*generation, error) {
	var g *generation
	err := e.ride(ctx, req)
	if err == nil {
		g = req.gen
		t0 := time.Now()
		err = detect.Postprocess(g.head, &req.frame)
		if errors.Is(err, detect.ErrNonFinite) { // the frame's pixels overflowed the forward
			err = fmt.Errorf("%w: %v", ErrBadInput, err)
		}
		e.post.Add(1, time.Since(t0))
	}
	switch {
	case err == nil:
		e.hist.Observe(time.Since(req.enq))
		e.served.Add(1)
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrDraining): // the pool's to count
	case !reusable(err): // the caller's context fired, noticed here or by the worker
		e.expired.Add(1)
	default:
		e.hist.Observe(time.Since(req.enq))
		e.failed.Add(1)
	}
	return g, err
}
