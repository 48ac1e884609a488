package serve

// A lane is the one machine every service in this package is built on: a
// bounded admission queue, the worker goroutines that take requests off it a
// micro-batch at a time (pipeline.CollectBatch), and a drain/close shutdown
// sequence. The pool's detection engine and the TrackService both embed one,
// for their whole lives, and differ only in how many workers they run, what
// a worker does with a batch and what they count.
//
// It is not the §6.3 stream executor, which overlaps the stages of
// consecutive frames of one stream. Serving requests are independent and
// arrive on goroutines of their own, so the CPU-side work runs there — before
// admission and after the answer — and only the forwards need a queue.

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

	work pipeline.StageClock // the workers' own stage: one item per request served
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
				t.done <- struct{}{}
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
// counters move before the hand-back, so a caller that reads the metrics
// right after its answer finds its own batch in them.
//
//skynet:hotpath
func (l *lane[T]) flush(batch []T, waited time.Duration, serve func([]T)) {
	if len(batch) == 0 {
		return
	}
	t0 := time.Now()
	serve(batch)
	l.work.Add(len(batch), time.Since(t0))
	l.work.AddBatch()
	l.work.AddWait(waited)
	for _, req := range batch {
		req.tk().done <- struct{}{}
	}
}

// ride is a request's whole trip, on its caller's goroutine: the ticket is
// stamped with ctx, and the lane's default deadline when ctx has none, the
// request is admitted, and the caller waits for the worker's hand-back, ctx,
// or the alarm at the stamped deadline. It returns the refusal (ErrOverloaded,
// ErrDraining), ctx's error or DeadlineExceeded — the request may then still
// be queued or in a forward, where the worker finds it expired (ticket.live)
// and skips it, and the record must not ride again (see reusable) — or what
// the worker recorded. A record's second trip allocates nothing.
//
//skynet:hotpath
func (l *lane[T]) ride(ctx context.Context, req T) error {
	t := req.tk()
	t.ctx, t.err, t.enq, t.deadline = ctx, nil, time.Now(), time.Time{}
	if _, ok := ctx.Deadline(); !ok && l.timeout > 0 {
		t.deadline = t.enq.Add(l.timeout)
	}
	if err := l.admit(req); err != nil {
		return err
	}
	var alarm <-chan time.Time // nil, never ready, without a stamped deadline
	if !t.deadline.IsZero() {
		if t.alarm == nil {
			t.alarm = time.NewTimer(l.timeout)
		} else {
			t.alarm.Reset(l.timeout) // the last trip left it stopped and drained
		}
		alarm = t.alarm.C
	}
	select {
	case <-t.done:
		if alarm != nil && !t.alarm.Stop() {
			<-alarm // go.mod keeps pre-1.23 timers: drain a fired one before its Reset
		}
		return t.err
	case <-ctx.Done():
		return ctx.Err()
	case <-alarm:
		return context.DeadlineExceeded
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
// the deadline ride stamps when it has none, the first per-request failure,
// the admission timestamp, and two wake-ups a record makes once and reuses
// every trip: done, the worker's one send a trip (its one slot never blocks
// the worker, even when the caller has given up), and the deadline's alarm.
type ticket struct {
	ctx      context.Context
	deadline time.Time // zero: none stamped
	err      error     // set by the worker
	enq      time.Time
	done     chan struct{}
	alarm    *time.Timer // made on the record's first trip with a stamped deadline
}

func newTicket() ticket { return ticket{done: make(chan struct{}, 1)} }

//skynet:hotpath
func (t *ticket) tk() *ticket { return t }

// live reports whether the request still needs work: no failure recorded
// yet, its context not ended and its stamped deadline not passed. Expiry is
// recorded as the request's error, so a skipped request can never be
// delivered to a still-listening caller as a zero-value success.
//
//skynet:hotpath
func (t *ticket) live() bool {
	if t.err != nil {
		return false
	}
	if err := t.ctx.Err(); err != nil {
		t.err = err
		return false
	}
	if !t.deadline.IsZero() && !time.Now().Before(t.deadline) {
		t.err = context.DeadlineExceeded
		return false
	}
	return true
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
