// Package serve exposes a trained detector as a concurrent service: the
// production form of the §6.3 system-level optimization. Pool is the one
// detection front door; each of its replicas is an engine in which requests
// are admitted through a bounded queue (overflow sheds load instead of
// growing latency without bound), flow through the streaming executor — the
// same merged three stages as the offline pipeline, with the inference
// stage dynamically micro-batched so one weight load serves many users —
// and return to their callers individually. Per-request failures (bad
// input, deadline, a panicking model) are carried inside the request and
// never fail the shared stream, so one poisoned request cannot take the
// service down. Admission, the default deadline and drain/close are the
// lane's (lane.go), shared with TrackService.
package serve

import (
	"context"
	"errors"
	"fmt"
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

// Config tunes one detection replica. The zero value selects
// serving-appropriate defaults.
type Config struct {
	// MaxBatch caps the inference micro-batch; 0 selects 8.
	MaxBatch int
	// MaxDelay bounds how long a partial batch waits for more requests
	// before flushing; 0 selects 2ms. Serving always needs a positive
	// delay — "wait forever for a full batch" would strand the final
	// partial batch of a lull.
	MaxDelay time.Duration
	// QueueDepth bounds the admission queue; 0 selects 64. A full queue
	// rejects new requests with ErrOverloaded.
	QueueDepth int
	// PreWorkers / PostWorkers scale the CPU-side stages; 0 selects 2.
	PreWorkers  int
	PostWorkers int
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
	laneDefaults(&c.MaxDelay, &c.QueueDepth, &c.PreWorkers, &c.PostWorkers, &c.RequestTimeout)
}

// request is one in-flight detection riding the replica's lane; the
// detection is read off frame once the ticket is done.
type request struct {
	ticket
	frame *detect.Frame
}

// replica is one detection engine around a private model+head pair: a lane
// whose stages pre-process, micro-batch through the model, and decode. It
// has no HTTP surface — Pool is the front door — and is safe for concurrent
// use. Stop with drain (graceful) or close (abandon).
type replica struct {
	lane
	hist *Histogram

	served   atomic.Int64
	failed   atomic.Int64
	rejected atomic.Int64
	expired  atomic.Int64
}

// newReplica starts the serving pipeline for a model+head pair. The model
// is driven from a single inference worker (Graph forwards share buffers
// and are not concurrency-safe); throughput scales with Config.MaxBatch.
func newReplica(m detect.Model, h *detect.Head, cfg Config) (*replica, error) {
	if m == nil || h == nil {
		return nil, errors.New("serve: model and head are required")
	}
	cfg.normalize()
	r := &replica{hist: NewHistogram()}

	// Stage procs mirror detect.PreStage/InferStage/PostStage but record
	// failures on the request instead of returning them, so the executor
	// only ever sees nil errors; its panic recovery is backed up by a local
	// recover in the batch stage.
	err := r.start(cfg.QueueDepth, cfg.RequestTimeout,
		pipeline.StageSpec{
			Name:    pipeline.StagePre,
			Workers: cfg.PreWorkers,
			Proc: func(_ context.Context, v any) (any, error) {
				req := v.(*request)
				if req.live() {
					if err := detect.Preprocess(req.frame); err != nil {
						req.err = fmt.Errorf("%w: %v", ErrBadInput, err)
					} else if c := cfg.Channels; c > 0 && req.frame.Image.Dim(0) != c {
						req.err = fmt.Errorf("%w: image has %d channels, want %d",
							ErrBadInput, req.frame.Image.Dim(0), c)
					}
				}
				return req, nil
			},
		},
		pipeline.StageSpec{
			Name:     pipeline.StageInfer,
			MaxBatch: cfg.MaxBatch,
			MaxDelay: cfg.MaxDelay,
			Batch: func(_ context.Context, items []any) ([]any, error) {
				// Only requests that survived pre-processing and still have a
				// waiting caller are worth a forward pass.
				live := make([]*detect.Frame, 0, len(items))
				reqs := make([]*request, 0, len(items))
				for _, v := range items {
					req := v.(*request)
					if req.live() {
						live = append(live, req.frame)
						reqs = append(reqs, req)
					}
				}
				if err := inferBatchSafe(m, live); err != nil {
					for _, req := range reqs {
						req.err = err
					}
				}
				return items, nil
			},
		},
		pipeline.StageSpec{
			Name:    pipeline.StagePost,
			Workers: cfg.PostWorkers,
			Proc: func(_ context.Context, v any) (any, error) {
				req := v.(*request)
				if req.live() {
					req.err = detect.Postprocess(h, req.frame)
				}
				close(req.done)
				return req, nil
			},
		},
	)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// inferBatchSafe runs one batched forward, converting a model panic into
// ErrInference so a poisoned batch fails its requests, not the stream.
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

// Submit runs one detection through the replica: admission queue,
// micro-batched inference, decode. It blocks until the result is ready,
// the context fires, or the request is rejected at admission. When ctx has
// no deadline, Config.RequestTimeout is applied. owned hands img over to the
// pipeline (detect.Frame.Owned): it is read in place until the ticket is done.
func (r *replica) Submit(ctx context.Context, img *tensor.Tensor, owned bool) (detect.Box, float64, error) {
	ctx, cancel := r.deadline(ctx)
	defer cancel()
	req := &request{ticket: newTicket(ctx), frame: &detect.Frame{Image: img, Owned: owned}}
	if err := r.admit(req); err != nil {
		if errors.Is(err, ErrOverloaded) {
			r.rejected.Add(1)
		}
		return detect.Box{}, 0, err
	}

	select {
	case <-req.done:
		r.hist.Observe(time.Since(req.enq))
		if req.err != nil {
			r.failed.Add(1)
			return detect.Box{}, 0, req.err
		}
		r.served.Add(1)
		return req.frame.Box, req.frame.Conf, nil
	case <-ctx.Done():
		// The request is still in the pipeline; its stages will see the
		// expired context and skip the remaining work.
		r.expired.Add(1)
		return detect.Box{}, 0, ctx.Err()
	}
}
