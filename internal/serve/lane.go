package serve

// A lane is the one implementation of the machine every service in this
// package is built on: a bounded admission queue feeding a long-lived
// pipeline.Executor stream, with a drain/close shutdown sequence. The
// detection replica and the TrackService both embed one and differ only in
// their stage procs and in what they count.

import (
	"context"
	"sync"
	"time"

	"skynet/internal/pipeline"
)

// lane owns admission, the default request deadline, and shutdown for one
// executor stream. Requests enter through admit and are never dropped once
// admitted: drain lets them finish, close cancels the stream under them.
type lane struct {
	ex      *pipeline.Executor
	timeout time.Duration // default request deadline; <= 0 disables it

	gate     sync.RWMutex // orders admit's send against drain's close(in)
	draining bool
	in       chan any

	cancel   context.CancelFunc
	finished chan struct{} // closed once every stream goroutine has exited
	runErr   error         // stream error, readable after finished
}

// start builds the executor over specs and begins streaming from a queue of
// the given depth. The stage procs own result delivery; the stream's
// ordered output is only drained to keep the executor moving.
func (l *lane) start(depth int, timeout time.Duration, specs ...pipeline.StageSpec) error {
	ex, err := pipeline.NewExecutor(depth, specs...)
	if err != nil {
		return err
	}
	l.ex = ex
	l.timeout = timeout
	l.in = make(chan any, depth)
	l.finished = make(chan struct{})

	//skynet:nolint ctxflow -- the stream lives for the service's lifetime, not any request's; drain/close end it, so a fresh root is correct here
	ctx, cancel := context.WithCancel(context.Background())
	l.cancel = cancel
	out, wait := ex.Stream(ctx, l.in)
	go func() {
		for range out {
		}
		l.runErr = wait()
		close(l.finished)
	}()
	return nil
}

// deadline applies the lane's default request timeout when ctx carries no
// deadline of its own. The returned cancel is always safe to defer.
func (l *lane) deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); !ok && l.timeout > 0 {
		return context.WithTimeout(ctx, l.timeout)
	}
	return ctx, func() {}
}

// admit offers req to the queue without blocking: ErrDraining once
// shutdown has begun, ErrOverloaded when the queue is full. The send
// happens under the read lock, so a concurrent drain cannot close the
// queue between the draining check and the send.
func (l *lane) admit(req any) error {
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
func (l *lane) beginDrain() {
	l.gate.Lock()
	if !l.draining {
		l.draining = true
		close(l.in)
	}
	l.gate.Unlock()
}

// drain shuts the lane down gracefully: admitted requests complete and the
// stream exits. It returns when that has happened or ctx fires (the drain
// keeps completing in the background either way). Idempotent.
func (l *lane) drain(ctx context.Context) error {
	l.beginDrain()
	select {
	case <-l.finished:
		return l.runErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// close abandons the stream immediately — in-flight requests fail with its
// cancellation — and returns once every stream goroutine has exited.
func (l *lane) close() {
	l.beginDrain()
	l.cancel()
	<-l.finished
}

// stages snapshots the executor's per-stage counters for /metrics.
func (l *lane) stages() []pipelineStageJSON {
	stats := l.ex.Stats()
	out := make([]pipelineStageJSON, len(stats))
	for i, st := range stats {
		out[i] = stageJSON(st)
	}
	return out
}

// isDraining reports whether shutdown has begun.
func (l *lane) isDraining() bool {
	l.gate.RLock()
	defer l.gate.RUnlock()
	return l.draining
}

// ticket is what every request riding a lane carries: the caller's context,
// the first per-request failure, the admission timestamp, and the channel
// the last stage closes to hand the request back — closed exactly once, so
// delivery never blocks the pipeline even when the caller has given up.
// Failures are recorded here instead of being returned to the executor,
// whose errors are fail-fast for the whole stream — exactly wrong for
// serving.
type ticket struct {
	ctx  context.Context
	err  error // set by the owning stage
	enq  time.Time
	done chan struct{}
}

func newTicket(ctx context.Context) ticket {
	return ticket{ctx: ctx, enq: time.Now(), done: make(chan struct{})}
}

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

// laneDefaults fills in the knobs every lane-backed service exposes in its
// own config (Config, TrackConfig — their field docs say what each default
// is for), so the serving defaults live in one place.
func laneDefaults(maxDelay *time.Duration, queueDepth, preWorkers, postWorkers *int, timeout *time.Duration) {
	if *maxDelay <= 0 {
		*maxDelay = 2 * time.Millisecond
	}
	if *queueDepth <= 0 {
		*queueDepth = defaultQueueDepth
	}
	if *preWorkers <= 0 {
		*preWorkers = 2
	}
	if *postWorkers <= 0 {
		*postWorkers = 2
	}
	if *timeout == 0 {
		*timeout = 5 * time.Second
	}
}

const defaultQueueDepth = 64
