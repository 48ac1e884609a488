package pipeline

// This file implements the live streaming executor of §6.3/Figure 10:
// context cancellation with graceful drain, error-as-value stage results
// with panics recovered, fail-fast propagation that provably leaks no
// goroutine, per-stage worker counts with sequence-numbered order
// restoration, dynamic micro-batching (the paper's batched-inference
// stage), and per-stage occupancy counters that can be compared against
// the analytic PipelinedMakespan model.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Proc is the per-item transform of a streaming stage. It may be invoked
// concurrently from StageSpec.Workers goroutines; returning an error (or
// panicking) fails the whole stream.
type Proc func(ctx context.Context, item any) (any, error)

// BatchProc is the transform of a micro-batching stage. It must return
// exactly one result per input item, in the same order.
type BatchProc func(ctx context.Context, items []any) ([]any, error)

// StageSpec describes one stage of an Executor. Exactly one of Proc and
// Batch must be set.
type StageSpec struct {
	Name string
	// Workers is the number of goroutines concurrently running Proc (or
	// collecting batches for Batch); 0 means 1. When Workers > 1 the
	// executor reassembles the stage's output in input order before the
	// next stage sees it, so scaling out a bottleneck stage never reorders
	// the stream.
	Workers int
	// Proc transforms one item.
	Proc Proc
	// Batch, if set, makes this a micro-batching stage: the items that
	// queued while the previous call ran, up to MaxBatch of them, are
	// processed in a single call — the batched-inference stage of §6.3, where
	// one weight load serves the whole batch. A lone item is never held back
	// for partners.
	Batch BatchProc
	// MaxBatch caps the micro-batch size; 0 means 1.
	MaxBatch int
}

// Executor runs a fixed sequence of stages over a stream of items. It is
// safe for concurrent use; counters aggregate across runs.
type Executor struct {
	specs []StageSpec
	buf   int
	ctrs  []*stageCounters
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
		if s.Workers <= 0 {
			s.Workers = 1
		}
		if s.Batch != nil && s.MaxBatch <= 0 {
			s.MaxBatch = 1
		}
	}
	ctrs := make([]*stageCounters, len(specs))
	for i := range ctrs {
		ctrs[i] = &stageCounters{}
	}
	return &Executor{specs: specs, buf: buf, ctrs: ctrs}, nil
}

// token carries one item plus its position in the input stream, so
// multi-worker stages can be reassembled in order.
type token struct {
	seq int
	val any
}

// run is the shared per-invocation state of Run/Stream.
type run struct {
	ex     *Executor
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu  sync.Mutex
	err error
}

// fail records the first error and cancels the run. It sits on the
// itemWorker hot chain (the error path is cold, but reachability is what
// the closure audits) and allocates nothing itself.
//
//skynet:hotpath
func (r *run) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
		r.cancel()
	}
	r.mu.Unlock()
}

func (r *run) firstErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Run feeds items through the stages and returns the results in input
// order. On a stage error (including a recovered panic) it returns that
// error; if ctx is cancelled first it returns ctx.Err(). In every case all
// goroutines started by the run have exited before Run returns.
func (e *Executor) Run(ctx context.Context, items []any) ([]any, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &run{ex: e, ctx: rctx, cancel: cancel}

	// Feeder: stamp sequence numbers and stop on cancellation, so a failed
	// run never strands this goroutine on a send nobody will receive.
	cur := make(chan token, e.buf)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(cur)
		for i, it := range items {
			select {
			case cur <- token{seq: i, val: it}:
			case <-rctx.Done():
				return
			}
		}
	}()

	var next <-chan token = cur
	for i := range e.specs {
		next = r.startStage(i, next)
	}

	// Final consumer: the last channel is already in input order (stages
	// either have one worker or are followed by a sequencer), and we always
	// drain it, so no select on Done is needed here.
	results := make([]any, 0, len(items))
	for t := range next {
		results = append(results, t.val)
	}
	r.wg.Wait()
	if err := r.firstErr(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
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
	rctx, cancel := context.WithCancel(ctx)
	r := &run{ex: e, ctx: rctx, cancel: cancel}

	// Sequence-stamping feeder.
	cur := make(chan token, e.buf)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(cur)
		seq := 0
		for {
			select {
			case v, ok := <-in:
				if !ok {
					return
				}
				select {
				case cur <- token{seq: seq, val: v}:
					seq++
				case <-rctx.Done():
					return
				}
			case <-rctx.Done():
				return
			}
		}
	}()

	var next <-chan token = cur
	for i := range e.specs {
		next = r.startStage(i, next)
	}

	out := make(chan any, e.buf)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(out)
		for t := range next {
			select {
			case out <- t.val:
			case <-rctx.Done():
				return
			}
		}
	}()

	wait := func() error {
		r.wg.Wait()
		cancel()
		if err := r.firstErr(); err != nil {
			return err
		}
		return ctx.Err()
	}
	return out, wait
}

// startStage launches the workers (and, for multi-worker stages, the
// order-restoring sequencer) of stage idx reading from in.
func (r *run) startStage(idx int, in <-chan token) <-chan token {
	e := r.ex
	spec := e.specs[idx]
	ctrs := e.ctrs[idx]
	out := make(chan token, e.buf)

	var workers sync.WaitGroup
	for w := 0; w < spec.Workers; w++ {
		workers.Add(1)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer workers.Done()
			if spec.Batch != nil {
				r.batchWorker(spec, ctrs, in, out)
			} else {
				r.itemWorker(spec, ctrs, in, out)
			}
		}()
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		workers.Wait()
		close(out)
	}()

	if spec.Workers > 1 {
		return r.startSequencer(out)
	}
	return out
}

// itemWorker is the per-item stage loop: the steady-state body of every
// streaming stage. It must not allocate per item — tokens travel by
// value and counters mutate in place — so a saturated pipeline puts no
// pressure on the garbage collector.
//
//skynet:hotpath
func (r *run) itemWorker(spec StageSpec, c *stageCounters, in <-chan token, out chan<- token) {
	for {
		tWait := time.Now()
		var t token
		var ok bool
		select {
		case t, ok = <-in:
		case <-r.ctx.Done():
			return
		}
		if !ok {
			return
		}
		c.addWait(time.Since(tWait))

		t0 := time.Now()
		v, err := safeProc(r.ctx, spec.Proc, t.val)
		c.addBusy(time.Since(t0))
		if err != nil {
			r.fail(fmt.Errorf("pipeline: stage %q: %w", spec.Name, err))
			return
		}
		c.addItems(1)

		tSend := time.Now()
		select {
		case out <- token{seq: t.seq, val: v}:
		case <-r.ctx.Done():
			return
		}
		c.addBlocked(time.Since(tSend))
	}
}

// batchWorker collects micro-batches via CollectBatch (the first pending
// item plus whatever else is already queued, up to MaxBatch) and processes
// each in one BatchProc call.
func (r *run) batchWorker(spec StageSpec, c *stageCounters, in <-chan token, out chan<- token) {
	toks := make([]token, 0, spec.MaxBatch)
	seqs := make([]int, 0, spec.MaxBatch)
	vals := make([]any, 0, spec.MaxBatch)

	flush := func() bool {
		if len(vals) == 0 {
			return true
		}
		t0 := time.Now()
		res, err := safeBatch(r.ctx, spec.Batch, vals)
		c.addBusy(time.Since(t0))
		if err == nil && len(res) != len(vals) {
			err = fmt.Errorf("batch returned %d results for %d items", len(res), len(vals))
		}
		if err != nil {
			r.fail(fmt.Errorf("pipeline: stage %q: %w", spec.Name, err))
			return false
		}
		c.addItems(len(vals))
		c.addBatch()
		tSend := time.Now()
		for i, v := range res {
			select {
			case out <- token{seq: seqs[i], val: v}:
			case <-r.ctx.Done():
				return false
			}
		}
		c.addBlocked(time.Since(tSend))
		seqs = seqs[:0]
		vals = vals[:0]
		return true
	}

	for {
		var end BatchEnd
		toks, end = CollectBatch(r.ctx.Done(), in, spec.MaxBatch, toks)
		if end.Cancelled {
			return
		}
		if len(toks) > 0 {
			c.addWait(end.FirstWait)
			for _, t := range toks {
				seqs = append(seqs, t.seq)
				vals = append(vals, t.val)
			}
			if !flush() {
				return
			}
		}
		if end.Drained {
			return
		}
	}
}

// startSequencer restores input order after a multi-worker stage: tokens
// arrive out of order and are buffered until the next expected sequence
// number shows up. Stages never drop items (errors cancel the whole run),
// so the expected sequence is a simple increment.
func (r *run) startSequencer(in <-chan token) <-chan token {
	out := make(chan token, r.ex.buf)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(out)
		pending := make(map[int]any)
		next := 0
		for t := range in {
			pending[t.seq] = t.val
			for {
				v, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				select {
				case out <- token{seq: next, val: v}:
				case <-r.ctx.Done():
					return
				}
				next++
			}
		}
	}()
	return out
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

// SleepSpec returns a per-item stage that blocks for d per item across
// `workers` goroutines — a stand-in for I/O-bound work (input fetch, DMA)
// used by the analytic-model agreement tests and benchmarks.
func SleepSpec(name string, d time.Duration, workers int) StageSpec {
	return StageSpec{Name: name, Workers: workers, Proc: func(ctx context.Context, v any) (any, error) {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return v, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
}
