package serve

// The lane's contract, tested once for both services that embed it:
// admission is non-blocking and bounded, shutdown refuses new work, drain
// is idempotent and lets admitted work finish, close answers every admitted
// request and leaves no goroutine — at any worker count — and a lane is
// exactly one goroutine per worker.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skynet/internal/tensor"
)

// testRider is the smallest thing a lane can queue.
type testRider struct{ ticket }

func newTestRider() *testRider { return &testRider{ticket: boardedTicket(context.Background())} }

// boardedTicket is a new record's ticket as ride leaves it for ctx with no
// deadline stamped: for a test that admits a request itself.
func boardedTicket(ctx context.Context) ticket {
	t := newTicket()
	t.ctx, t.enq = ctx, time.Now()
	return t
}

// gatedLane starts a one-worker lane (batches of one) whose worker blocks on
// gate for every request.
func gatedLane(t *testing.T, depth int, gate chan struct{}) *lane[*testRider] {
	t.Helper()
	l := &lane[*testRider]{}
	l.start(1, depth, time.Second, 1, func(int, []*testRider) { <-gate })
	return l
}

// eventually polls cond for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: still not so after 5s (%d goroutines)", what, runtime.NumGoroutine())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// laneGoroutines counts, by the function they run, the goroutines this
// package's services own: lane workers and TrackService janitors.
func laneGoroutines() (workers, janitors int) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		switch {
		case strings.Contains(g, "]).loop("):
			workers++
		case strings.Contains(g, "(*TrackService).sweep("):
			janitors++
		}
	}
	return workers, janitors
}

func TestLaneAdmitDrainClose(t *testing.T) {
	before := runtime.NumGoroutine()
	gate := make(chan struct{})
	l := gatedLane(t, 1, gate)

	// With the worker gated shut the lane absorbs a bounded number of
	// requests (the queue, plus the one in the worker's hands) and then sheds
	// without blocking.
	var admitted []*testRider
	for {
		req := newTestRider()
		err := l.admit(req)
		if errors.Is(err, ErrOverloaded) {
			break
		}
		if err != nil {
			t.Fatalf("admit: %v", err)
		}
		admitted = append(admitted, req)
		if len(admitted) > 2 {
			t.Fatalf("a depth-1 lane admitted %d requests with its worker gated shut", len(admitted))
		}
		time.Sleep(5 * time.Millisecond) // let the worker pull from the queue
	}
	if len(admitted) == 0 {
		t.Fatal("nothing was admitted before the lane shed")
	}

	// Drain refuses new work at once, is idempotent, and honours its ctx
	// while admitted work is still stuck behind the gate.
	short, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	for i := 0; i < 2; i++ {
		if err := l.drain(short); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("drain %d behind a shut gate: %v, want deadline exceeded", i, err)
		}
	}
	if !l.isDraining() {
		t.Fatal("lane not draining after drain")
	}
	if err := l.admit(newTestRider()); !errors.Is(err, ErrDraining) {
		t.Fatalf("admit after drain: %v, want ErrDraining", err)
	}

	// Opening the gate lets every admitted request finish and the drain end.
	close(gate)
	long, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := l.drain(long); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, req := range admitted {
		select {
		case <-req.done:
			if req.err != nil {
				t.Fatalf("admitted request %d failed in a graceful drain: %v", i, req.err)
			}
		default:
			t.Fatalf("admitted request %d was dropped by the drain", i)
		}
	}
	l.close() // after a finished drain: a no-op that must not hang

	// close on a lane with work stuck in it finishes the request in the
	// worker's hands, refuses the queued ones, and waits for the worker.
	gate2, serving := make(chan struct{}), make(chan struct{}, 1)
	stuck := &lane[*testRider]{}
	stuck.start(1, 4, time.Second, 1, func(int, []*testRider) {
		serving <- struct{}{}
		<-gate2
	})
	var reqs []*testRider
	for i := 0; i < 3; i++ {
		req := newTestRider()
		if err := stuck.admit(req); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	// Until the worker is serving the first: taking it off the queue is not
	// enough, a close between that and the serve refuses it with the rest.
	<-serving
	go func() {
		for !stuck.isDraining() {
			time.Sleep(time.Millisecond)
		}
		close(gate2)
	}()
	stuck.close()
	stuck.close()
	for i, req := range reqs {
		select {
		case <-req.done:
		default:
			t.Fatalf("close left admitted request %d unanswered", i)
		}
		if want := i > 0; errors.Is(req.err, ErrDraining) != want {
			t.Fatalf("request %d after close: err %v (the first was in flight, the rest queued)", i, req.err)
		}
	}
	if err := stuck.admit(newTestRider()); !errors.Is(err, ErrDraining) {
		t.Fatalf("admit after close: %v, want ErrDraining", err)
	}
	eventually(t, "no goroutine left after drain and close", func() bool { return runtime.NumGoroutine() <= before })
}

func TestLaneDefaultDeadline(t *testing.T) {
	gate := make(chan struct{})
	close(gate)
	l := gatedLane(t, 1, gate)
	defer l.close()
	// ride returns the deadline stamped on the request's ticket, which
	// carries the caller's context itself.
	ride := func(ctx context.Context) time.Time {
		t.Helper()
		req := &testRider{ticket: newTicket()}
		if err := l.ride(ctx, req); err != nil {
			t.Fatal(err)
		}
		if req.ctx != ctx {
			t.Fatal("the ticket must carry the caller's context, not a wrapper")
		}
		return req.deadline
	}

	before := time.Now()
	if d := ride(context.Background()); d.Before(before.Add(l.timeout)) {
		t.Fatalf("a context without a deadline must get the lane's default: stamped %v", d)
	}
	own, cancelOwn := context.WithTimeout(context.Background(), time.Hour)
	defer cancelOwn()
	if d := ride(own); !d.IsZero() {
		t.Fatal("a context with its own deadline must get no stamp")
	}
	l.timeout = -1
	if d := ride(context.Background()); !d.IsZero() {
		t.Fatal("a non-positive timeout must disable the default deadline")
	}
}

// TestLaneDefaultDeadlineExpires: the lane's default timeout answers its
// caller with context.DeadlineExceeded while the request is still in the
// worker's hands, and the worker, finding the stamped deadline passed, skips
// the request and hands it back with that error.
func TestLaneDefaultDeadlineExpires(t *testing.T) {
	gate := make(chan struct{})
	var served atomic.Int64
	l := &lane[*testRider]{}
	l.start(1, 1, 20*time.Millisecond, 1, func(_ int, batch []*testRider) {
		<-gate
		for _, req := range batch {
			if req.live() {
				served.Add(1)
			}
		}
	})
	defer l.close()
	req := &testRider{ticket: newTicket()}
	if err := l.ride(context.Background(), req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ride past the default deadline: %v, want context.DeadlineExceeded", err)
	}
	close(gate)
	select {
	case <-req.done:
	case <-time.After(5 * time.Second):
		t.Fatal("the expired request was never handed back")
	}
	if n := served.Load(); n != 0 || !errors.Is(req.err, context.DeadlineExceeded) {
		t.Fatalf("the worker served the expired request %d times and recorded %v, want 0 and context.DeadlineExceeded", n, req.err)
	}
}

// TestLaneHandedBackRecordKeepsNoStaleAlarm: a record handed back when its
// alarm has already fired leaves no tick in the alarm's channel, or its next
// trip would wake on it at once and answer DeadlineExceeded with its request
// still queued. The deadlines are a few microseconds, about what a worker
// that serves at once and never checks them takes to hand a request back, so
// trips end both ways; one that ends on the alarm abandons its record.
func TestLaneHandedBackRecordKeepsNoStaleAlarm(t *testing.T) {
	answered := 0
	for _, timeout := range []time.Duration{time.Microsecond, 3 * time.Microsecond, 10 * time.Microsecond, 30 * time.Microsecond} {
		l := &lane[*testRider]{}
		l.start(1, 64, timeout, 1, func(int, []*testRider) {})
		for i := 0; i < 2000; i++ {
			req := &testRider{ticket: newTicket()}
			for trip := 0; trip < 5 && l.ride(context.Background(), req) == nil; trip++ {
				answered++
				if len(req.alarm.C) != 0 {
					l.close()
					t.Fatalf("deadline %v: a handed-back record kept a tick of its alarm", timeout)
				}
			}
		}
		l.close()
	}
	if answered == 0 {
		t.Fatal("no trip was handed back before its alarm: the case was never run")
	}
}

// TestLaneRideAllocatesNothing: once a record has made a trip, its next trip
// — stamp, admission, the worker's hand-back and the wake-up — allocates
// nothing, with the lane's default deadline and with the caller's own.
func TestLaneRideAllocatesNothing(t *testing.T) {
	l := &lane[*testRider]{}
	l.start(1, 4, 5*time.Second, 1, func(int, []*testRider) {})
	defer l.close()
	own, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for name, ctx := range map[string]context.Context{"default deadline": context.Background(), "caller's deadline": own} {
		req := &testRider{ticket: newTicket()}
		ride := func() {
			if err := l.ride(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
		ride()
		if n := testing.AllocsPerRun(100, ride); n != 0 {
			t.Errorf("%s: a warm ride allocates %v times, want 0", name, n)
		}
	}
}

// TestLaneRecordAbandonedOnItsDeadlineIsNeverReused: a Submit that gives up
// on its deadline leaves its record — and the frame copy in it, which the
// forward in flight is reading — to the collector; no later request is ever
// handed it. The stub model names the record by the image it was handed.
func TestLaneRecordAbandonedOnItsDeadlineIsNeverReused(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	m := &recordingModel{stubModel: stubModel{gate: gate}, entered: make(chan struct{}, 1)}
	p := newSinglePool(t, m, Config{MaxBatch: 1, RequestTimeout: 30 * time.Millisecond})
	t.Cleanup(release) // before the pool's Close, which waits for the forward
	for requests.Len() > 0 {
		requests.Get()
	}
	if _, _, err := p.Submit(context.Background(), testImage(0.1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("submit behind a blocked forward: %v, want context.DeadlineExceeded", err)
	}
	<-m.entered
	m.mu.Lock()
	abandoned := m.seen[0]
	m.mu.Unlock()
	if n := requests.Len(); n != 0 {
		t.Fatalf("the abandoned record went back to the free list (%d pooled)", n)
	}
	release()
	for i := 0; i < 8; i++ {
		if _, _, err := p.Submit(context.Background(), testImage(0.2+float32(i)*0.1)); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, x := range m.seen[1:] {
		if x == abandoned {
			t.Fatalf("request %d after the deadline was handed the abandoned record", i+1)
		}
	}
}

// recordingModel is a stubModel that records the first pixel's address of
// every image it is handed, and says when a forward has begun.
type recordingModel struct {
	stubModel
	entered chan struct{}
	seen    []*float32 // guarded by stubModel.mu
}

func (m *recordingModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	m.mu.Lock()
	m.seen = append(m.seen, &x.Data[0])
	m.mu.Unlock()
	select {
	case m.entered <- struct{}{}:
	default:
	}
	return m.stubModel.Forward(x, train)
}

// TestLaneWorkersHandBackEveryAdmittedRequest is the shutdown contract at
// 1, 2 and 4 workers on the one queue, under riders that keep arriving while
// it happens: every ride returns; a request is served by exactly one worker
// (the unsynchronised per-request count is the race detector's to watch); in a
// drain every admitted one is served, in a close it is served or refused, never
// both; nothing is served once finished has closed; and no worker is left.
func TestLaneWorkersHandBackEveryAdmittedRequest(t *testing.T) {
	type countedRider struct {
		ticket
		served int // written by the worker that holds the request, read after the hand-back
	}
	for _, workers := range []int{1, 2, 4} {
		for _, stop := range []string{"drain", "close"} {
			w0, _ := laneGoroutines()
			var served atomic.Int64
			l := &lane[*countedRider]{}
			l.start(workers, 2*workers, -1, 3, func(_ int, batch []*countedRider) {
				for _, req := range batch {
					req.served++
					served.Add(1)
				}
				runtime.Gosched() // let the queue refill: batches > 1, riders shed
			})

			const riders = 8
			var answered, refusedLate atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < riders; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						req := &countedRider{ticket: newTicket()}
						err := l.ride(context.Background(), req)
						switch {
						case err == nil && req.served == 1:
							answered.Add(1)
						case errors.Is(err, ErrOverloaded) && req.served == 0:
							runtime.Gosched()
						case errors.Is(err, ErrDraining) && req.served == 0:
							if req.err != nil { // admitted, then handed back unserved: close's to do, never drain's
								refusedLate.Add(1)
							} // else refused at admission, which records nothing
							return
						default:
							t.Errorf("%d workers, %s: ride returned %v for a request served %d times", workers, stop, err, req.served)
							return
						}
					}
				}()
			}
			for answered.Load() < 50 {
				time.Sleep(time.Millisecond)
			}
			if stop == "drain" {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				if err := l.drain(ctx); err != nil {
					t.Fatalf("%d workers: drain: %v", workers, err)
				}
				cancel()
			} else {
				l.close()
			}
			atFinish := served.Load() // finished has closed
			joined := make(chan struct{})
			go func() {
				wg.Wait()
				close(joined)
			}()
			select {
			case <-joined:
			case <-time.After(5 * time.Second):
				t.Fatalf("%d workers, %s: riders still waiting after finished closed: an admitted request was never handed back", workers, stop)
			}
			if got := served.Load(); got != atFinish {
				t.Errorf("%d workers, %s: %d requests served after finished closed", workers, stop, got-atFinish)
			}
			if got := answered.Load(); got != atFinish {
				t.Errorf("%d workers, %s: %d served, %d answered: a served request's rider must get its answer", workers, stop, atFinish, got)
			}
			if n := refusedLate.Load(); n != 0 && stop == "drain" {
				t.Errorf("%d workers: a graceful drain handed %d admitted requests back unserved", workers, n)
			}
			eventually(t, "the lane's workers have exited", func() bool {
				w, _ := laneGoroutines()
				return w == w0
			})
		}
	}
}

// TestGoroutineCensus pins the shape: a pool is one goroutine per worker —
// before and after a swap, which starts none — a TrackService two (the
// worker and the TTL janitor), and both Drain and Close give every one of
// them back. The services' own goroutines are
// counted by the function they run (exactly n), the process total bounds
// everything else (at most n more than before): together, exactly n were
// added — and an idle connection of an earlier test closing mid-census
// cannot fail it.
func TestGoroutineCensus(t *testing.T) {
	const n = 4
	census := func(t *testing.T, what string, total, workers, janitors int) {
		t.Helper()
		eventually(t, what, func() bool {
			w, j := laneGoroutines()
			return w == workers && j == janitors && runtime.NumGoroutine() <= total
		})
	}
	for _, stop := range []string{"drain", "close"} {
		total := runtime.NumGoroutine()
		w0, j0 := laneGoroutines()
		p, err := NewPool(verFactory(1, nil, nil), PoolConfig{Replicas: n})
		if err != nil {
			t.Fatal(err)
		}
		census(t, "a pool of 4 workers is 4 goroutines", total+n, w0+n, j0)
		if err := p.Swap(verFactory(2, nil, nil)); err != nil {
			t.Fatal(err)
		}
		census(t, "and still 4 after a swap", total+n, w0+n, j0)
		ts, err := NewTrackService(testTracker(false), TrackConfig{})
		if err != nil {
			t.Fatal(err)
		}
		census(t, "a TrackService is 2 goroutines", total+n+2, w0+n+1, j0+1)
		if _, _, err := p.Submit(context.Background(), testImage(0.3)); err != nil {
			t.Fatal(err)
		}
		census(t, "a served request leaves no goroutine behind", total+n+2, w0+n+1, j0+1)

		if stop == "drain" {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := errors.Join(p.Drain(ctx), ts.Drain(ctx)); err != nil {
				t.Fatal(err)
			}
			cancel()
		} else {
			p.Close()
			ts.Close()
		}
		census(t, "back to the baseline after "+stop, total, w0, j0)
	}
}

// TestCloseAnswersEveryAdmittedRequest: Close with requests queued behind a
// forward in flight must hand every one of them back — the one in flight
// with its answer, the rest with ErrDraining — even when neither the caller's
// context nor the lane's default deadline would ever fire. At the parent
// commit the queued callers were never answered.
func TestCloseAnswersEveryAdmittedRequest(t *testing.T) {
	const n = 6
	// closeBehind queues n submits behind a worker the caller has already
	// blocked on gate, stops the service, opens the gate, and wants every
	// queued caller back with ErrDraining.
	closeBehind := func(t *testing.T, queued func() int, draining func() bool, submit func(i int) error, gate chan struct{}, stop func()) {
		t.Helper()
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = submit(i)
			}(i)
		}
		for queued() < n {
			time.Sleep(time.Millisecond)
		}
		stopped := make(chan struct{})
		go func() {
			stop()
			close(stopped)
		}()
		for !draining() { // stop has marked the lane before the forward returns
			time.Sleep(time.Millisecond)
		}
		close(gate)
		answered := make(chan struct{})
		go func() {
			wg.Wait()
			close(answered)
		}()
		select {
		case <-answered:
		case <-time.After(5 * time.Second):
			t.Fatal("Close stranded admitted callers: they never returned")
		}
		<-stopped
		for i, err := range errs {
			if !errors.Is(err, ErrDraining) {
				t.Errorf("queued request %d after Close: %v, want ErrDraining", i, err)
			}
		}
	}

	t.Run("replica", func(t *testing.T) {
		gate := make(chan struct{})
		m := &enteringModel{stubModel: stubModel{gate: gate}, entered: make(chan struct{})}
		p := newSinglePool(t, m, Config{MaxBatch: 1, QueueDepth: n, RequestTimeout: -1})
		r := &p.eng
		inFlight := make(chan error, 1)
		go func() {
			_, _, err := p.Submit(context.Background(), testImage(0.9))
			inFlight <- err
		}()
		<-m.entered
		closeBehind(t, func() int { return len(r.in) }, r.isDraining, func(i int) error {
			_, _, err := p.Submit(context.Background(), testImage(float32(i)*0.1))
			return err
		}, gate, p.Close)
		if err := <-inFlight; err != nil {
			t.Fatalf("the forward in flight at Close: %v, want its answer", err)
		}
		if m := r.Metrics(); m.Served != 1 || m.Failed != 0 {
			t.Fatalf("metrics %+v, want the one answer served and no refusal counted as a failure", m)
		}
	})

	t.Run("TrackService", func(t *testing.T) {
		ts, err := NewTrackService(testTracker(false), TrackConfig{QueueDepth: n, RequestTimeout: -1})
		if err != nil {
			t.Fatal(err)
		}
		// Hold the worker inside a request of our own — its context blocks
		// the worker's liveness check — then queue Starts behind it.
		gate := make(chan struct{})
		hold := &heldCtx{Context: context.Background(), entered: make(chan struct{}), gate: gate}
		held := &trackReq{ticket: boardedTicket(hold)}
		if err := ts.admit(held); err != nil {
			t.Fatal(err)
		}
		<-hold.entered
		seq := testTrackSequences(1, 2)[0]
		closeBehind(t, func() int { return len(ts.in) }, ts.isDraining, func(int) error {
			_, _, err := ts.Start(context.Background(), seq.Frames[0], seq.Boxes[0])
			return err
		}, gate, ts.Close)
		select {
		case <-held.done:
		default:
			t.Fatal("the request in the worker's hands was not handed back")
		}
	})
}

// enteringModel is a stubModel that says when a forward has begun.
type enteringModel struct {
	stubModel
	entered chan struct{}
	once    sync.Once
}

func (m *enteringModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	m.once.Do(func() { close(m.entered) })
	return m.stubModel.Forward(x, train)
}

// heldCtx parks whoever asks it for Err — the lane's worker, in
// ticket.live — until gate closes, and says when that has happened.
type heldCtx struct {
	context.Context
	entered chan struct{}
	once    sync.Once
	gate    chan struct{}
}

func (c *heldCtx) Err() error {
	c.once.Do(func() { close(c.entered) })
	<-c.gate
	return context.Canceled
}
