package serve

// A lane is the one machine every service in this package is built on: a
// bounded admission queue, the worker goroutines that take requests off it a
// micro-batch at a time (pipeline.CollectBatch), and a drain/close shutdown
// sequence. A detection generation and the TrackService both embed one and
// differ only in how many workers they run, what a worker does with a batch
// and what they count.
//
// It is not the §6.3 stream executor, which overlaps the stages of
// consecutive frames of one stream. Serving requests are independent and
// arrive on goroutines of their own, so the CPU-side work runs there — before
// admission and after the answer — and only the models, one forward at a time
// each, need a queue.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"skynet/internal/pipeline"
)

// rider is what a lane queues: a request that carries a ticket.
type rider interface{ tk() *ticket }

// lane owns admission, the default request deadline, the workers and shutdown
// for one queue. An admitted request is always answered: drain lets it
// finish, close fails all but the forwards in flight with ErrDraining.
type lane[T rider] struct {
	timeout time.Duration // default request deadline; <= 0 disables it

	gate     sync.RWMutex // orders admit's send against drain's close(in)
	draining bool
	in       chan T

	abandoned atomic.Bool   // set by close: refuse what is still queued
	running   atomic.Int32  // workers that have not exited yet
	finished  chan struct{} // closed once the last worker has exited

	work stageClock // the workers' own stage: one item per request served
}

// start opens a queue of the given depth and begins the workers, all on that
// one queue: an idle worker takes the oldest queued request and whatever else
// queued while every worker was busy, up to maxBatch — a lone request never
// waits for partners, and none waits while a worker is idle — hands them to
// serve with its own index (what a worker owns — a model, scratch — is keyed
// by it), which records per-request failures on the tickets and must not
// panic, and closes each ticket.
func (l *lane[T]) start(workers, depth int, timeout time.Duration, maxBatch int, serve func(worker int, batch []T)) {
	l.timeout = timeout
	l.in = make(chan T, depth)
	l.finished = make(chan struct{})
	l.running.Store(int32(workers))
	for w := 0; w < workers; w++ {
		go l.loop(maxBatch, func(batch []T) { serve(w, batch) })
	}
}

// loop is one worker's goroutine: it runs until the queue is closed and
// empty. A closed queue hands its remaining requests over without waiting,
// so after close they are refused as fast as they can be collected.
func (l *lane[T]) loop(maxBatch int, serve func([]T)) {
	defer func() {
		if l.running.Add(-1) == 0 {
			close(l.finished)
		}
	}()
	buf := make([]T, 0, maxBatch)
	for {
		// No done channel: closing the queue (drain/close) is what ends the worker.
		batch, end := pipeline.CollectBatch(nil, l.in, maxBatch, buf)
		if l.abandoned.Load() {
			for _, req := range batch {
				t := req.tk()
				t.err = ErrDraining
				close(t.done)
			}
		} else {
			l.flush(batch, end.FirstWait, serve)
		}
		if end.Drained {
			return
		}
	}
}

// flush serves one collected batch and hands every request in it back. The
// counters move before the tickets close, so a caller that reads the metrics
// right after its answer finds its own batch in them.
//
//skynet:hotpath
func (l *lane[T]) flush(batch []T, waited time.Duration, serve func([]T)) {
	if len(batch) == 0 {
		return
	}
	t0 := time.Now()
	serve(batch)
	l.work.add(len(batch), time.Since(t0))
	l.work.batches.Add(1)
	l.work.waitNS.Add(int64(waited))
	for _, req := range batch {
		close(req.tk().done)
	}
}

// ride is a request's whole trip, on its caller's goroutine: a fresh ticket
// under ctx (with the lane's default timeout when ctx has no deadline of its
// own), admission, and the wait for the worker to hand it back. It returns
// the refusal (ErrOverloaded, ErrDraining), the context's error — the request
// may then still be queued or in a forward; the worker will see the expired
// context and skip what is left of it — or what the worker recorded.
func (l *lane[T]) ride(ctx context.Context, req T) error {
	if _, ok := ctx.Deadline(); !ok && l.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, l.timeout)
		defer cancel()
	}
	t := req.tk()
	*t = newTicket(ctx)
	if err := l.admit(req); err != nil {
		return err
	}
	select {
	case <-t.done:
		return t.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// admit offers req to the queue without blocking: ErrDraining once
// shutdown has begun, ErrOverloaded when the queue is full. The send
// happens under the read lock, so a concurrent drain cannot close the
// queue between the draining check and the send.
//
//skynet:hotpath
func (l *lane[T]) admit(req T) error {
	l.gate.RLock()
	defer l.gate.RUnlock()
	if l.draining {
		return ErrDraining
	}
	select {
	case l.in <- req:
		return nil
	default:
		return ErrOverloaded
	}
}

// beginDrain refuses new admissions and closes the queue. Idempotent.
func (l *lane[T]) beginDrain() {
	l.gate.Lock()
	if !l.draining {
		l.draining = true
		close(l.in)
	}
	l.gate.Unlock()
}

// drain shuts the lane down gracefully: admitted requests complete and the
// workers exit. It returns when that has happened or ctx fires (the drain
// keeps completing in the background either way). Idempotent.
func (l *lane[T]) drain(ctx context.Context) error {
	l.beginDrain()
	select {
	case <-l.finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// close stops the lane now: the batch in each worker's hands finishes, every
// other admitted request fails with ErrDraining, the workers exit.
func (l *lane[T]) close() {
	l.abandoned.Store(true)
	l.beginDrain()
	<-l.finished
}

// isDraining reports whether shutdown has begun.
func (l *lane[T]) isDraining() bool {
	l.gate.RLock()
	defer l.gate.RUnlock()
	return l.draining
}

// ticket is what every request riding a lane carries: the caller's context,
// the first per-request failure, the admission timestamp, and the channel
// the worker closes to hand the request back — closed exactly once, so
// delivery never blocks the worker even when the caller has given up.
type ticket struct {
	ctx  context.Context
	err  error // set by the worker
	enq  time.Time
	done chan struct{}
}

func newTicket(ctx context.Context) ticket {
	return ticket{ctx: ctx, enq: time.Now(), done: make(chan struct{})}
}

//skynet:hotpath
func (t *ticket) tk() *ticket { return t }

// live reports whether the request still needs work: no failure recorded
// yet and a caller still waiting. An expired context is recorded as the
// request's error, so a skipped request can never be delivered to a
// still-listening caller as a zero-value success.
func (t *ticket) live() bool {
	if t.err != nil {
		return false
	}
	if err := t.ctx.Err(); err != nil {
		t.err = err
		return false
	}
	return true
}

// stageClock is one row of the /metrics stage table: the lane's workers keep
// one, a generation one each for the pre- and post-process its callers run.
type stageClock struct {
	items   atomic.Int64
	batches atomic.Int64
	busyNS  atomic.Int64
	waitNS  atomic.Int64
}

//skynet:hotpath
func (c *stageClock) add(items int, busy time.Duration) {
	c.items.Add(int64(items))
	c.busyNS.Add(int64(busy))
}

// snapshot renders the counters through pipeline.StageStats, so per-item
// time, mean batch size and occupancy are the executor's own arithmetic.
// workers is 0 for a stage that runs on its callers' goroutines.
func (c *stageClock) snapshot(name string, workers int) pipelineStageJSON {
	return stageJSON(pipeline.StageStats{
		Name:    name,
		Workers: workers,
		Items:   c.items.Load(),
		Batches: c.batches.Load(),
		Busy:    time.Duration(c.busyNS.Load()),
		Wait:    time.Duration(c.waitNS.Load()),
	})
}

// laneDefaults fills in the knobs every lane-backed service exposes in its
// own config (Config, TrackConfig), so their defaults live in one place.
func laneDefaults(queueDepth *int, timeout *time.Duration) {
	if *queueDepth <= 0 {
		*queueDepth = defaultQueueDepth
	}
	if *timeout == 0 {
		*timeout = 5 * time.Second
	}
}

const defaultQueueDepth = 64
