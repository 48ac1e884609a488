package pipeline

// This file implements the live streaming executor of §6.3/Figure 10: one
// goroutine per stage, as the paper's TX2 system runs one thread per stage
// and PipelinedMakespan models it, with context cancellation and graceful
// drain, error-as-value stage results with panics recovered, fail-fast
// propagation that provably leaks no goroutine, dynamic micro-batching (the
// paper's batched-inference stage), and per-stage occupancy counters that
// can be compared against the analytic model.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Proc is the per-item transform of a streaming stage; returning an error
// (or panicking) fails the whole stream.
type Proc func(ctx context.Context, item any) (any, error)

// BatchProc is the transform of a micro-batching stage. It must return
// exactly one result per input item, in the same order; it may return items
// itself: the stage emits the results before it collects the next batch.
type BatchProc func(ctx context.Context, items []any) ([]any, error)

// StageSpec describes one stage of an Executor. Exactly one of Proc and
// Batch must be set. Each stage runs on one goroutine, so it emits items in
// the order it took them and the stream stays in input order.
type StageSpec struct {
	Name string
	// Proc transforms one item.
	Proc Proc
	// Batch, if set, makes this a micro-batching stage: the items that
	// queued while the previous call ran, up to MaxBatch of them, are
	// processed in a single call — the batched-inference stage of §6.3, where
	// one weight load serves the whole batch. A lone item is never held back
	// for partners.
	Batch BatchProc
	// MaxBatch caps the micro-batch size; 0 means 1. A Proc stage takes its
	// items one at a time.
	MaxBatch int
}

// Executor runs a fixed sequence of stages over a stream of items. It is
// safe for concurrent use: concurrent runs share the stages — a stage whose
// work is not reentrant serializes it itself, as detect.InferStage does its
// frame list — and the counters aggregate across runs.
type Executor struct {
	specs  []StageSpec
	buf    int
	clocks []StageClock
}

// NewExecutor validates the stage specs and returns an executor with
// inter-stage channel buffering buf (minimum 1).
func NewExecutor(buf int, specs ...StageSpec) (*Executor, error) {
	if len(specs) == 0 {
		return nil, errors.New("pipeline: executor needs at least one stage")
	}
	if buf < 1 {
		buf = 1
	}
	for i := range specs {
		s := &specs[i]
		if (s.Proc == nil) == (s.Batch == nil) {
			return nil, fmt.Errorf("pipeline: stage %q must set exactly one of Proc and Batch", s.Name)
		}
		if s.Proc != nil || s.MaxBatch <= 0 {
			s.MaxBatch = 1
		}
	}
	return &Executor{specs: specs, buf: buf, clocks: make([]StageClock, len(specs))}, nil
}

// run is the shared per-invocation state of a Stream. The first failure —
// a stage error or the caller's cancellation — is the cause its context
// ends with.
type run struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	buf    int
	wg     sync.WaitGroup
}

// Run feeds items through the stages and returns the results in input
// order. On a stage error (including a recovered panic) it returns that
// error; if ctx is cancelled first it returns ctx.Err(). In every case all
// goroutines started by the run have exited before Run returns.
func (e *Executor) Run(ctx context.Context, items []any) ([]any, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	in := make(chan any)
	out, wait := e.Stream(rctx, in)

	// Feeder: it stops on cancellation, so a failed run never strands it on
	// a send nobody will receive.
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		defer close(in)
		for _, it := range items {
			select {
			case in <- it:
			case <-rctx.Done():
				return
			}
		}
	}()

	results := make([]any, 0, len(items))
	for v := range out {
		results = append(results, v)
	}
	err := wait()
	cancel() // a failed stream stopped reading: release the feeder
	<-fed
	if err != nil {
		return nil, err
	}
	if len(results) != len(items) {
		// Unreachable drain shortfall without an error: report it rather
		// than silently returning a truncated slice.
		return nil, fmt.Errorf("pipeline: %d of %d items dropped", len(items)-len(results), len(items))
	}
	return results, nil
}

// Stream runs the stages over an input channel, emitting results in input
// order on the returned channel, which is closed when the input drains or
// the run fails. The returned wait function blocks until every goroutine
// has exited and reports the first error (stage error, recovered panic, or
// the context's error). Callers must drain the output channel.
func (e *Executor) Stream(ctx context.Context, in <-chan any) (<-chan any, func() error) {
	rctx, cancel := context.WithCancelCause(ctx)
	r := &run{ctx: rctx, cancel: cancel, buf: e.buf}

	// The first queue, buf deep like the others, so the first stage's input
	// backs up here and not on the caller's send. Its forwarder stops on
	// cancellation.
	cur := make(chan any, e.buf)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(cur)
		for {
			select {
			case v, ok := <-in:
				if !ok {
					return
				}
				select {
				case cur <- v:
				case <-rctx.Done():
					return
				}
			case <-rctx.Done():
				return
			}
		}
	}()

	var next <-chan any = cur
	for i := range e.specs {
		next = r.startStage(e.specs[i], &e.clocks[i], next)
	}

	wait := func() error {
		r.wg.Wait()
		err := context.Cause(rctx)
		cancel(nil)
		return err
	}
	return next, wait
}

// startStage launches stage's goroutine reading from in. The goroutine
// closes its output when it returns, which cascades the drain (or the
// failure) down the stage chain.
func (r *run) startStage(spec StageSpec, c *StageClock, in <-chan any) <-chan any {
	out := make(chan any, r.buf)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(out)
		r.stageLoop(spec, c, in, out)
	}()
	return out
}

// stageLoop is a stage's body: it takes what CollectBatch hands it — one item
// for a per-item stage, a micro-batch for a batching one — and steps it
// through the stage until the input drains or the run ends.
func (r *run) stageLoop(spec StageSpec, c *StageClock, in <-chan any, out chan<- any) {
	batch := make([]any, 0, spec.MaxBatch)
	for {
		var end BatchEnd
		batch, end = CollectBatch(r.ctx.Done(), in, spec.MaxBatch, batch)
		if len(batch) > 0 && !r.step(spec, c, batch, end.FirstWait, out) {
			return
		}
		if end.Drained || end.Cancelled {
			return
		}
	}
}

// step runs one collected batch through the stage and emits its results in
// order, reporting false once the run has failed. It is the steady-state body
// of every stage and must not allocate — a per-item stage's result takes its
// item's place in batch, counters mutate in place — so a saturated pipeline
// puts no pressure on the garbage collector.
//
//skynet:hotpath
func (r *run) step(spec StageSpec, c *StageClock, batch []any, waited time.Duration, out chan<- any) bool {
	c.AddWait(waited)
	t0 := time.Now()
	res, err := batch, error(nil)
	if spec.Batch != nil {
		res, err = safeBatch(r.ctx, spec.Batch, batch)
	} else {
		batch[0], err = safeProc(r.ctx, spec.Proc, batch[0])
	}
	busy := time.Since(t0)
	if err == nil && len(res) != len(batch) {
		err = fmt.Errorf("batch returned %d results for %d items", len(res), len(batch))
	}
	if err != nil {
		r.cancel(fmt.Errorf("pipeline: stage %q: %w", spec.Name, err))
		return false
	}
	c.Add(len(batch), busy)
	if spec.Batch != nil {
		c.AddBatch()
	}
	tSend := time.Now()
	for _, v := range res {
		select {
		case out <- v:
		case <-r.ctx.Done():
			return false
		}
	}
	c.AddBlocked(time.Since(tSend))
	return true
}

// safeProc invokes p converting a panic into an error. The recovery is a
// deferred call to a named function rather than a closure literal: a
// closure here would heap-allocate its header on every item of every
// stage, the single largest steady-state allocation the hotpath closure
// audit found in this package.
//
//skynet:hotpath
func safeProc(ctx context.Context, p Proc, v any) (out any, err error) {
	defer recoverToError(&err)
	return p(ctx, v)
}

// safeBatch invokes b converting a panic into an error.
//
//skynet:hotpath
func safeBatch(ctx context.Context, b BatchProc, vals []any) (out []any, err error) {
	defer recoverToError(&err)
	return b(ctx, vals)
}

// recoverToError converts an in-flight panic into *errp. It must be the
// deferred function itself (recover only works when called directly from a
// deferred frame), and it takes the error by pointer so the caller's defer
// statement captures no closure.
//
//skynet:hotpath
func recoverToError(errp *error) {
	if rec := recover(); rec != nil {
		*errp = fmt.Errorf("panic: %v", rec)
	}
}
