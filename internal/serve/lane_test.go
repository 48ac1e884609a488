package serve

// The lane's contract, tested once for both services that embed it:
// admission is non-blocking and bounded, shutdown refuses new work, drain
// is idempotent and lets admitted work finish, close leaves no goroutine.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"skynet/internal/pipeline"
)

// gatedLane starts a one-stage lane whose stage blocks on gate and then
// signals the item (a chan struct{}) done.
func gatedLane(t *testing.T, depth int, gate chan struct{}) *lane {
	t.Helper()
	l := &lane{}
	err := l.start(depth, time.Second, pipeline.StageSpec{
		Name: "gated",
		Proc: func(ctx context.Context, v any) (any, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			close(v.(chan struct{}))
			return v, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLaneAdmitDrainClose(t *testing.T) {
	before := runtime.NumGoroutine()
	gate := make(chan struct{})
	l := gatedLane(t, 1, gate)

	// With the stage gated shut the lane absorbs a bounded number of
	// requests (queue + stage buffers) and then sheds without blocking.
	var admitted []chan struct{}
	for {
		req := make(chan struct{})
		err := l.admit(req)
		if errors.Is(err, ErrOverloaded) {
			break
		}
		if err != nil {
			t.Fatalf("admit: %v", err)
		}
		admitted = append(admitted, req)
		if len(admitted) > 64 {
			t.Fatal("a depth-1 lane admitted 64 requests with its stage gated shut")
		}
		time.Sleep(time.Millisecond) // let the stream pull from the queue
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
	if err := l.admit(make(chan struct{})); !errors.Is(err, ErrDraining) {
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
		case <-req:
		default:
			t.Fatalf("admitted request %d was dropped by the drain", i)
		}
	}
	l.close() // after a finished drain: a no-op that must not hang

	// close on a lane with work stuck in it cancels the stream and waits
	// for every goroutine.
	stuck := gatedLane(t, 4, make(chan struct{}))
	if err := stuck.admit(make(chan struct{})); err != nil {
		t.Fatal(err)
	}
	stuck.close()
	stuck.close()
	if err := stuck.admit(make(chan struct{})); !errors.Is(err, ErrDraining) {
		t.Fatalf("admit after close: %v, want ErrDraining", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d after drain and close, started with %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLaneDefaultDeadline(t *testing.T) {
	l := gatedLane(t, 1, make(chan struct{}))
	defer l.close()

	ctx, cancel := l.deadline(context.Background())
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("a context without a deadline must get the lane's default")
	}
	cancel()

	own, cancelOwn := context.WithTimeout(context.Background(), time.Hour)
	defer cancelOwn()
	ctx, cancel = l.deadline(own)
	defer cancel()
	if ctx != own {
		t.Fatal("a context with its own deadline must pass through untouched")
	}

	l.timeout = -1
	ctx, cancel = l.deadline(context.Background())
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Fatal("a non-positive timeout must disable the default deadline")
	}
}
