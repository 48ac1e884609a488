package pipeline

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestMakespanFormulas(t *testing.T) {
	durs := []float64{1, 2, 3}
	if got := SerialMakespan(durs, 4); got != 24 {
		t.Fatalf("serial = %v, want 24", got)
	}
	// Pipelined: fill (6) + 3 more bottleneck periods (9) = 15.
	if got := PipelinedMakespan(durs, 4); got != 15 {
		t.Fatalf("pipelined = %v, want 15", got)
	}
	if got := PipelinedMakespan(durs, 0); got != 0 {
		t.Fatalf("pipelined(0 items) = %v", got)
	}
}

// Property: pipelining never loses (pipelined ≤ serial) and never beats
// the bottleneck bound (throughput ≤ 1/max).
func TestQuickPipelineBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(4)
		durs := make([]float64, k)
		for i := range durs {
			durs[i] = 0.001 + rng.Float64()*0.05
		}
		n := 1 + rng.Intn(100)
		ser := SerialMakespan(durs, n)
		pip := PipelinedMakespan(durs, n)
		if pip > ser+1e-12 {
			return false
		}
		var sum float64
		for _, d := range durs {
			sum += d
		}
		// Speedup is bounded by the stage count and by sum/max.
		return SystemSpeedup(durs, durs, n) <= float64(k)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTX2ProfileReproducesPaper: the stage profile must yield the paper's
// 3.35× pipeline speedup and 67.33 FPS peak throughput.
func TestTX2ProfileReproducesPaper(t *testing.T) {
	fps := ThroughputFPS(TX2StageProfile)
	if math.Abs(fps-67.33) > 0.5 {
		t.Fatalf("TX2 pipelined FPS %.2f, paper says 67.33", fps)
	}
	sp := SystemSpeedup(TX2SerialProfile, TX2StageProfile, 10000)
	if math.Abs(sp-3.35) > 0.05 {
		t.Fatalf("TX2 system speedup %.3f, paper says 3.35", sp)
	}
	// The serial design runs at ≈ 20 FPS (67.33 / 3.35).
	serialFPS := 1 / (SerialMakespan(TX2SerialProfile, 1))
	if math.Abs(serialFPS-20.1) > 0.5 {
		t.Fatalf("serial FPS %.2f, want ≈ 20.1", serialFPS)
	}
}

// TestFPGAProfileReproducesPaper: with the Ultra96 inference bottleneck at
// 1/25.05 FPS, the pipeline peaks at the paper's 25.05 FPS.
func TestFPGAProfileReproducesPaper(t *testing.T) {
	profile := FPGAStageProfile(1 / 25.05)
	fps := ThroughputFPS(profile)
	if math.Abs(fps-25.05) > 0.1 {
		t.Fatalf("FPGA pipelined FPS %.2f, paper says 25.05", fps)
	}
}

// perItem lifts plain per-item transforms into single-worker executor
// stages, and runSerial is the reference they are checked against: every
// item through every transform, one at a time.
func perItem(fs ...func(int) int) []StageSpec {
	specs := make([]StageSpec, len(fs))
	for i, f := range fs {
		specs[i] = StageSpec{Name: "f", Proc: func(_ context.Context, v any) (any, error) {
			return f(v.(int)), nil
		}}
	}
	return specs
}

func runSerial(items []any, fs ...func(int) int) []any {
	out := make([]any, len(items))
	for i, it := range items {
		cur := it.(int)
		for _, f := range fs {
			cur = f(cur)
		}
		out[i] = cur
	}
	return out
}

func TestRunSerialOrderAndResults(t *testing.T) {
	double := func(x int) int { return x * 2 }
	inc := func(x int) int { return x + 1 }
	want := []int{3, 5, 7}
	ser := runSerial([]any{1, 2, 3}, double, inc)
	ex, err := NewExecutor(0, perItem(double, inc)...)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ex.Run(context.Background(), []any{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want {
		if ser[i].(int) != v || out[i].(int) != v {
			t.Fatalf("serial %v, executor %v, want %v", ser, out, want)
		}
	}
}

func TestRunPipelinedMatchesSerial(t *testing.T) {
	square := func(x int) int { return x * x }
	neg := func(x int) int { return -x }
	items := intItems(20)
	ser := runSerial(items, square, neg)
	ex, err := NewExecutor(2, perItem(square, neg)...)
	if err != nil {
		t.Fatal(err)
	}
	pip, err := ex.Run(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if len(pip) != len(ser) {
		t.Fatalf("pipelined returned %d items, want %d", len(pip), len(ser))
	}
	for i := range ser {
		if ser[i] != pip[i] {
			t.Fatalf("order or value mismatch at %d: %v vs %v", i, ser[i], pip[i])
		}
	}
}

// TestPipelinedWallClockFaster shows the real executor overlapping
// I/O-bound stages: with three sleep stages the pipelined run must beat
// one-item-at-a-time execution by a clear margin even on one CPU.
func TestPipelinedWallClockFaster(t *testing.T) {
	d := 3 * time.Millisecond
	specs := []StageSpec{
		sleepSpec(StagePre, d),
		sleepSpec(StageInfer, d),
		sleepSpec(StagePost, d),
	}
	ex, err := NewExecutor(1, specs...)
	if err != nil {
		t.Fatal(err)
	}
	items := intItems(12)
	// Warm both modes on a short prefix so neither measurement pays the
	// one-time costs (scheduler ramp-up, timer setup).
	if _, err := ex.Run(context.Background(), items[:4]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * d)

	// The serial baseline runs the very same stage functions, back to back,
	// so both measurements pay the same per-stage timer overhead and the
	// ratio reflects overlap alone, not timer slack under a loaded machine.
	t0 := time.Now()
	for _, it := range items {
		v := it
		for _, s := range specs {
			if v, err = s.Proc(context.Background(), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	serial := time.Since(t0)
	t1 := time.Now()
	out, err := ex.Run(context.Background(), items)
	pipelined := time.Since(t1)
	if err != nil {
		t.Fatal(err)
	}
	if pipelined >= serial {
		t.Fatalf("pipelined %v not faster than serial %v", pipelined, serial)
	}
	ratio := float64(serial) / float64(pipelined)
	if ratio < 1.8 {
		t.Fatalf("wall-clock speedup %.2f too low for 3 equal stages", ratio)
	}
	for i, v := range out {
		if v != items[i] {
			t.Fatalf("pipelined result %d = %v, want %v", i, v, items[i])
		}
	}
}

// The empty workload must yield a defined speedup of 1, not the 0/0 NaN
// the raw makespan ratio produces (both makespans are 0 for n <= 0).
func TestSpeedupEmptyWorkload(t *testing.T) {
	for _, n := range []int{0, -3} {
		if got := SystemSpeedup(TX2SerialProfile, TX2StageProfile, n); got != 1 {
			t.Fatalf("SystemSpeedup(n=%d) = %v, want 1", n, got)
		}
	}
	if got := SystemSpeedup([]float64{0}, []float64{0}, 5); math.IsNaN(got) || got != 1 {
		t.Fatalf("SystemSpeedup(zero profiles) = %v, want 1", got)
	}
}

func TestStageBreakdownRendering(t *testing.T) {
	s := StageBreakdown(TX2StageProfile)
	if !strings.Contains(s, StageInfer) || !strings.Contains(s, "ms") {
		t.Fatalf("breakdown %q missing content", s)
	}
}

func TestThroughputZero(t *testing.T) {
	if ThroughputFPS([]float64{0, 0}) != 0 {
		t.Fatal("zero-duration profile must report zero FPS")
	}
}
