package pipeline

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// leakCheck snapshots the goroutine count and returns a function that
// fails the test if the count has not returned to (near) the baseline
// within a generous deadline. The executor's contract is that every
// goroutine a run starts has exited by the time Run returns, so no
// settling time should normally be needed; the polling loop only absorbs
// unrelated runtime goroutines.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func intItems(n int) []any {
	items := make([]any, n)
	for i := range items {
		items[i] = i
	}
	return items
}

func TestExecutorMatchesSerial(t *testing.T) {
	defer leakCheck(t)()
	ex, err := NewExecutor(2,
		StageSpec{Name: "square", Workers: 3, Proc: func(_ context.Context, v any) (any, error) {
			x := v.(int)
			return x * x, nil
		}},
		StageSpec{Name: "sum+1", MaxBatch: 4,
			Batch: func(_ context.Context, items []any) ([]any, error) {
				out := make([]any, len(items))
				for i, v := range items {
					out[i] = v.(int) + 1
				}
				return out, nil
			}},
		StageSpec{Name: "neg", Proc: func(_ context.Context, v any) (any, error) {
			return -v.(int), nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ex.Run(context.Background(), intItems(50))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if want := -(i*i + 1); v.(int) != want {
			t.Fatalf("result %d = %v, want %d", i, v, want)
		}
	}
}

// A panicking stage must surface as an error from Run — the original
// sketch deadlocked every upstream goroutine and the collector forever.
func TestExecutorPanicBecomesError(t *testing.T) {
	defer leakCheck(t)()
	ex, err := NewExecutor(1,
		SleepSpec(StagePre, time.Millisecond, 2),
		StageSpec{Name: "boom", Proc: func(_ context.Context, v any) (any, error) {
			if v.(int) == 13 {
				panic("unlucky frame")
			}
			return v, nil
		}},
		SleepSpec(StagePost, time.Millisecond, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ex.Run(context.Background(), intItems(64))
	if out != nil || err == nil {
		t.Fatalf("Run = (%v, %v), want (nil, error)", out, err)
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "unlucky frame") {
		t.Fatalf("error %q does not identify the panicking stage", err)
	}
}

// A stage error is propagated as-is (wrapped), and errors.Is can find it.
func TestExecutorErrorPropagates(t *testing.T) {
	defer leakCheck(t)()
	sentinel := errors.New("decode failed")
	ex, err := NewExecutor(2,
		StageSpec{Name: "ok", Workers: 4, Proc: func(_ context.Context, v any) (any, error) { return v, nil }},
		StageSpec{Name: "fragile", Proc: func(_ context.Context, v any) (any, error) {
			if v.(int) == 17 {
				return nil, sentinel
			}
			return v, nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ex.Run(context.Background(), intItems(40))
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run error %v does not wrap the stage error", err)
	}
	if !strings.Contains(err.Error(), "fragile") {
		t.Fatalf("error %q does not name the failing stage", err)
	}
}

// Cancelling the context mid-stream aborts the run promptly with ctx.Err()
// and no goroutine left behind, even with a slow blocking stage.
func TestExecutorContextCancelMidStream(t *testing.T) {
	defer leakCheck(t)()
	ex, err := NewExecutor(1,
		SleepSpec(StagePre, time.Millisecond, 1),
		SleepSpec(StageInfer, 50*time.Millisecond, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	out, err := ex.Run(ctx, intItems(1000))
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = (%v, %v), want (nil, context.Canceled)", out, err)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, not prompt", elapsed)
	}
}

// Order must be preserved across a heavily multi-worker stage with
// randomized per-item delays — the sequence-numbered reassembly at work.
func TestExecutorOrderUnderRandomDelays(t *testing.T) {
	defer leakCheck(t)()
	rng := rand.New(rand.NewSource(42))
	delays := make([]time.Duration, 300)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(3000)) * time.Microsecond
	}
	ex, err := NewExecutor(4,
		StageSpec{Name: "jitter", Workers: 8, Proc: func(_ context.Context, v any) (any, error) {
			time.Sleep(delays[v.(int)])
			return v, nil
		}},
		StageSpec{Name: "tag", Workers: 3, Proc: func(_ context.Context, v any) (any, error) {
			return v, nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ex.Run(context.Background(), intItems(len(delays)))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v.(int) != i {
			t.Fatalf("order violated: position %d holds %v", i, v)
		}
	}
}

// A partial batch is processed as it stands: the stage never waits for
// MaxBatch items that are not coming.
func TestExecutorPartialBatchFlushes(t *testing.T) {
	defer leakCheck(t)()
	var calls atomic.Int64
	ex, err := NewExecutor(8,
		StageSpec{Name: "batch", MaxBatch: 100,
			Batch: func(_ context.Context, items []any) ([]any, error) {
				calls.Add(1)
				return items, nil
			}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ex.Run(context.Background(), intItems(5))
	if err != nil || len(out) != 5 {
		t.Fatalf("Run = (%d items, %v)", len(out), err)
	}
	stats := ex.Stats()[0]
	if stats.Items != 5 || stats.Batches != calls.Load() || stats.Batches == 0 {
		t.Fatalf("stats = %+v (calls %d)", stats, calls.Load())
	}
}

// However the stream happens to split, no batch exceeds MaxBatch and the
// batches cover every item once.
func TestExecutorBatchByCount(t *testing.T) {
	defer leakCheck(t)()
	var sizes []int
	ex, err := NewExecutor(64,
		StageSpec{Name: "batch", MaxBatch: 8,
			Batch: func(_ context.Context, items []any) ([]any, error) {
				sizes = append(sizes, len(items))
				return items, nil
			}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(context.Background(), intItems(24)); err != nil {
		t.Fatal(err)
	}
	var total int
	for _, s := range sizes {
		if s > 8 {
			t.Fatalf("batch of %d exceeds MaxBatch", s)
		}
		total += s
	}
	if total != 24 {
		t.Fatalf("batches covered %d items, want 24", total)
	}
}

// A BatchProc returning the wrong number of results is an error, not a
// silent drop or a stall.
func TestExecutorBatchSizeMismatch(t *testing.T) {
	defer leakCheck(t)()
	ex, err := NewExecutor(1,
		StageSpec{Name: "broken", MaxBatch: 4,
			Batch: func(_ context.Context, items []any) ([]any, error) {
				return items[:1], nil
			}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(context.Background(), intItems(8)); err == nil {
		t.Fatal("mismatched batch result count must fail the run")
	}
}

// One frame in flight: the producer sends the next frame only once the
// previous one is answered. A batch stage that held a frame back for partners
// would never answer the first; this one runs each as a batch of one.
func TestExecutorStreamOneFrameInFlight(t *testing.T) {
	defer leakCheck(t)()
	ex, err := NewExecutor(4,
		StageSpec{Name: "batch", MaxBatch: 4,
			Batch: func(_ context.Context, items []any) ([]any, error) { return items, nil }},
	)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	in := make(chan any)
	out, wait := ex.Stream(context.Background(), in)
	for i := 0; i < n; i++ {
		in <- i
		if v := <-out; v.(int) != i {
			t.Fatalf("answer %d = %v", i, v)
		}
	}
	close(in)
	for range out {
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if s := ex.Stats()[0]; s.Items != n || s.Batches != n {
		t.Fatalf("stats %+v, want %d batches of one", s, n)
	}
}

// A batch is what queued while the previous call ran. The first frame's call
// starts alone and is held; MaxBatch frames (and one more, whose acceptance by
// the feeder proves the others are queued) arrive meanwhile; they are the next
// batch, and the extra one the batch after.
func TestExecutorBatchFormsFromBacklog(t *testing.T) {
	defer leakCheck(t)()
	const maxBatch = 4
	entered := make(chan int)
	gate := make(chan struct{})
	ex, err := NewExecutor(maxBatch,
		StageSpec{Name: "batch", MaxBatch: maxBatch,
			Batch: func(_ context.Context, items []any) ([]any, error) {
				entered <- len(items)
				<-gate
				return items, nil
			}},
	)
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan any)
	out, wait := ex.Stream(context.Background(), in)
	results := make(chan int)
	go func() {
		n := 0
		for range out {
			n++
		}
		results <- n
	}()

	in <- 0
	if got := <-entered; got != 1 {
		t.Fatalf("first call got %d items with one sent, want 1", got)
	}
	for i := 1; i <= maxBatch+1; i++ {
		in <- i
	}
	close(in)
	for _, want := range []int{maxBatch, 1} {
		gate <- struct{}{}
		if got := <-entered; got != want {
			t.Fatalf("batch of %d, want %d", got, want)
		}
	}
	gate <- struct{}{}
	if n := <-results; n != maxBatch+2 {
		t.Fatalf("%d results, want %d", n, maxBatch+2)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
}

func TestNewExecutorValidation(t *testing.T) {
	if _, err := NewExecutor(1); err == nil {
		t.Fatal("zero stages must be rejected")
	}
	if _, err := NewExecutor(1, StageSpec{Name: "empty"}); err == nil {
		t.Fatal("a stage with neither Proc nor Batch must be rejected")
	}
	p := func(_ context.Context, v any) (any, error) { return v, nil }
	b := func(_ context.Context, v []any) ([]any, error) { return v, nil }
	if _, err := NewExecutor(1, StageSpec{Name: "both", Proc: p, Batch: b}); err == nil {
		t.Fatal("a stage with both Proc and Batch must be rejected")
	}
}

// Stream handles an unbounded producer: results come out in order and the
// wait function reports a clean shutdown.
func TestExecutorStream(t *testing.T) {
	defer leakCheck(t)()
	ex, err := NewExecutor(2,
		StageSpec{Name: "double", Workers: 2, Proc: func(_ context.Context, v any) (any, error) {
			return v.(int) * 2, nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan any)
	out, wait := ex.Stream(context.Background(), in)
	go func() {
		defer close(in)
		for i := 0; i < 100; i++ {
			in <- i
		}
	}()
	i := 0
	for v := range out {
		if v.(int) != 2*i {
			t.Fatalf("stream result %d = %v, want %d", i, v, 2*i)
		}
		i++
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if i != 100 {
		t.Fatalf("stream emitted %d results, want 100", i)
	}
}

// The zero-configuration executor — per-item stages, one worker each, the
// shape the §6.3 sketch had — turns a panicking Proc into Run's error too,
// instead of deadlocking every upstream goroutine as the sketch did.
func TestRunPipelinedPanicPropagates(t *testing.T) {
	defer leakCheck(t)()
	ex, err := NewExecutor(1,
		StageSpec{Name: "ok", Proc: func(_ context.Context, v any) (any, error) { return v, nil }},
		StageSpec{Name: "bad", Proc: func(context.Context, any) (any, error) { panic("stage boom") }},
	)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ex.Run(context.Background(), intItems(4))
	if out != nil || err == nil || !strings.Contains(err.Error(), "stage boom") {
		t.Fatalf("Run = (%v, %v), want the panic as an error", out, err)
	}
}

// The measured makespan of a multi-worker, micro-batched run on a
// SleepSpec workload must agree with the analytic PipelinedMakespan
// prediction over the effective (worker-scaled) profile. The test uses a
// generous margin to stay robust on loaded CI machines; the companion
// benchmark BenchmarkExecutorAnalyticGap reports the precise ratio
// (typically within ~10–20%).
func TestExecutorAgreesWithAnalyticModel(t *testing.T) {
	defer leakCheck(t)()
	const n = 32
	durs := []float64{0.002, 0.008, 0.002} // pre, infer, post (seconds)
	workers := []int{2, 4, 1}
	ex, err := NewExecutor(4,
		SleepSpec(StagePre, 2*time.Millisecond, 2),
		SleepSpec(StageInfer, 8*time.Millisecond, 4),
		SleepSpec(StagePost, 2*time.Millisecond, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if _, err := ex.Run(context.Background(), intItems(n)); err != nil {
		t.Fatal(err)
	}
	measured := time.Since(t0).Seconds()
	// Predict from the *measured* per-stage busy times (they include the
	// host's real sleep overshoot, which the nominal durations don't), so
	// any residual disagreement is the executor's own overhead, not timer
	// granularity.
	prof := ex.MeasuredProfile()
	if len(prof) != 3 {
		t.Fatalf("measured profile %v, want 3 stages", prof)
	}
	predicted := PipelinedMakespan(prof, n)
	ratio := measured / predicted
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("measured %.1fms vs predicted %.1fms (ratio %.2f) — executor drifted from the analytic model",
			measured*1e3, predicted*1e3, ratio)
	}
	// The nominal (worker-scaled) profile must stay a sane lower-bound
	// prediction too: the run can't beat it, and shouldn't be wildly over.
	nominal := PipelinedMakespan(EffectiveProfile(durs, workers), n)
	if r := measured / nominal; r < 0.95 || r > 2.5 {
		t.Fatalf("measured %.1fms vs nominal prediction %.1fms (ratio %.2f)", measured*1e3, nominal*1e3, r)
	}
	if s := StageBreakdown(prof); !strings.Contains(s, StageInfer) {
		t.Fatalf("breakdown %q missing stages", s)
	}
	stats := ex.Stats()
	for i, s := range stats {
		if s.Items != n {
			t.Fatalf("stage %d processed %d items, want %d", i, s.Items, n)
		}
		if s.Occupancy() <= 0 || s.Occupancy() > 1 {
			t.Fatalf("stage %d occupancy %v out of range", i, s.Occupancy())
		}
	}
}

// BenchmarkExecutorAnalyticGap reports the measured/predicted makespan
// ratio of the multi-worker + micro-batched executor on a SleepSpec
// workload: "×analytic" compares against the prediction from the measured
// per-stage busy times (~1.0x when the executor matches the §6.3 model),
// "×nominal" against the idealized sleep durations (includes the host's
// timer overshoot, typically within ~20%).
func BenchmarkExecutorAnalyticGap(b *testing.B) {
	// 10ms-scale sleeps keep the host's fixed per-sleep overshoot
	// (~0.5ms on a virtualized kernel) small relative to the stage costs,
	// and — as in the paper — batched inference is the sole bottleneck, so
	// the burst-shaped handoff out of a batch does not stack a second
	// serialization the smooth-flow analytic model cannot see.
	const n = 32
	// Batched inference: 40ms per batch of 4 → 10ms effective per item (the
	// first batch of a run is the lone first frame; the rest fill behind it).
	batchSleep := StageSpec{Name: StageInfer, MaxBatch: 4,
		Batch: func(ctx context.Context, items []any) ([]any, error) {
			t := time.NewTimer(40 * time.Millisecond)
			defer t.Stop()
			select {
			case <-t.C:
				return items, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}}
	ex, err := NewExecutor(4,
		SleepSpec(StagePre, 10*time.Millisecond, 2),
		batchSleep,
		SleepSpec(StagePost, 4*time.Millisecond, 1),
	)
	if err != nil {
		b.Fatal(err)
	}
	// Effective nominal profile: pre 10ms/2, infer 40ms/batch-of-4, post 4ms.
	nominal := PipelinedMakespan([]float64{0.005, 0.010, 0.004}, n)
	items := intItems(n)
	var measured float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := ex.Run(context.Background(), items); err != nil {
			b.Fatal(err)
		}
		measured += time.Since(t0).Seconds()
	}
	measured /= float64(b.N)
	b.ReportMetric(measured/PipelinedMakespan(ex.MeasuredProfile(), n), "×analytic")
	b.ReportMetric(measured/nominal, "×nominal")
}
