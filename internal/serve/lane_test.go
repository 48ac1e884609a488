package serve

// The lane's contract, tested once for both services that embed it:
// admission is non-blocking and bounded, shutdown refuses new work, drain
// is idempotent and lets admitted work finish, close answers every admitted
// request and leaves no goroutine — and a lane is exactly one goroutine.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"skynet/internal/detect"
	"skynet/internal/tensor"
)

// testRider is the smallest thing a lane can queue.
type testRider struct{ ticket }

func newTestRider() *testRider { return &testRider{ticket: newTicket(context.Background())} }

// gatedLane starts a lane (batches of one) whose worker blocks on gate for
// every request.
func gatedLane(t *testing.T, depth int, gate chan struct{}) *lane[*testRider] {
	t.Helper()
	l := &lane[*testRider]{}
	l.start(depth, time.Second, 1, func([]*testRider) { <-gate })
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
	gate2 := make(chan struct{})
	stuck := gatedLane(t, 4, gate2)
	var reqs []*testRider
	for i := 0; i < 3; i++ {
		req := newTestRider()
		if err := stuck.admit(req); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	for len(stuck.in) == len(reqs) { // until the worker holds the first
		time.Sleep(time.Millisecond)
	}
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
	// ride returns the context the request's ticket was cut under.
	ride := func(ctx context.Context) context.Context {
		t.Helper()
		req := &testRider{}
		if err := l.ride(ctx, req); err != nil {
			t.Fatal(err)
		}
		return req.ctx
	}

	if _, ok := ride(context.Background()).Deadline(); !ok {
		t.Fatal("a context without a deadline must get the lane's default")
	}
	own, cancelOwn := context.WithTimeout(context.Background(), time.Hour)
	defer cancelOwn()
	if ride(own) != own {
		t.Fatal("a context with its own deadline must pass through untouched")
	}
	l.timeout = -1
	if _, ok := ride(context.Background()).Deadline(); ok {
		t.Fatal("a non-positive timeout must disable the default deadline")
	}
}

// TestGoroutineCensus pins the shape: a replica is one goroutine, a
// TrackService two (the worker and the TTL janitor), and both Drain and
// Close give every one of them back. The services' own goroutines are
// counted by the function they run (exactly n), the process total bounds
// everything else (at most n more than before): together, exactly n were
// added — and an idle connection of an earlier test closing mid-census
// cannot fail it.
func TestGoroutineCensus(t *testing.T) {
	const n = 3
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
		census(t, "a pool of 3 replicas is 3 goroutines", total+n, w0+n, j0)
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
		r, err := newReplica(m, detect.NewHead(nil), Config{MaxBatch: 1, QueueDepth: n, RequestTimeout: -1})
		if err != nil {
			t.Fatal(err)
		}
		inFlight := make(chan error, 1)
		go func() {
			_, _, err := r.Submit(context.Background(), testImage(0.9), false)
			inFlight <- err
		}()
		<-m.entered
		closeBehind(t, func() int { return len(r.in) }, r.isDraining, func(i int) error {
			_, _, err := r.Submit(context.Background(), testImage(float32(i)*0.1), false)
			return err
		}, gate, r.close)
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
		held := &trackReq{ticket: newTicket(hold)}
		if err := ts.admit(held); err != nil {
			t.Fatal(err)
		}
		<-hold.entered
		seq := testTrackSequences(1, 2)[0]
		closeBehind(t, func() int { return len(ts.in) }, ts.Draining, func(int) error {
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
