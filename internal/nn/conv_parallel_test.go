package nn

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"skynet/internal/tensor"
)

// withParallelism pins both the layer-level and GEMM-level worker counts for
// the duration of fn.
func withParallelism(nnWorkers, gemmWorkers int, fn func()) {
	oldNN, oldT := MaxParallelism, tensor.MaxParallelism
	MaxParallelism, tensor.MaxParallelism = nnWorkers, gemmWorkers
	defer func() { MaxParallelism, tensor.MaxParallelism = oldNN, oldT }()
	fn()
}

func maxAbsDiff(a, b []float32) float64 {
	var worst float64
	for i, v := range a {
		d := math.Abs(float64(v - b[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// runConvStep runs one forward+backward of a fresh Conv2D on the given number
// of lanes and returns output, dx, dW, db. The batch of 7 is divisible by
// none of the lane counts the tests use, so lane 0 also walks a remainder.
func runConvStep(t *testing.T, workers int, seed int64) (out, dx, dw, db []float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := NewConv2D(rng, 4, 8, 3, 1, 1, true)
	x := randInput(rng, 7, 4, 14, 14)
	dout := randInput(rng, 7, 8, 14, 14)
	var o, d *tensor.Tensor
	withParallelism(workers, workers, func() {
		o = l.Forward([]*tensor.Tensor{x}, true)
		d = l.Backward([]*tensor.Tensor{x}, dout)[0]
	})
	return o.Data, d.Data, l.Weight.G.Data, l.Bias.G.Data
}

// TestConv2DParallelMatchesSerial checks that the batch loop gives the same
// bits at every lane count, forward and backward: outputs and dx are
// per-image work, and dW/db are staged per image and merged in image order,
// so nothing about the result may depend on how the images were dealt. The
// shapes are big enough that the GEMMs take the blocked kernel, as leaves on
// the lanes and split on lane 0's remainder. Run under -race this also proves
// the per-lane scratch is private.
func TestConv2DParallelMatchesSerial(t *testing.T) {
	outS, dxS, dwS, dbS := runConvStep(t, 1, 77)
	for _, workers := range []int{2, 3, 5} {
		outP, dxP, dwP, dbP := runConvStep(t, workers, 77)
		for _, c := range []struct {
			name      string
			got, want []float32
		}{{"output", outP, outS}, {"dx", dxP, dxS}, {"dW", dwP, dwS}, {"dBias", dbP, dbS}} {
			if d := maxAbsDiff(c.got, c.want); d != 0 {
				t.Errorf("%d workers: %s differs from one worker by %g", workers, c.name, d)
			}
		}
	}
}

// TestDWConv3ParallelBackwardMatchesSerial checks the channel-partitioned
// depth-wise backward against the serial loop.
func TestDWConv3ParallelBackwardMatchesSerial(t *testing.T) {
	run := func(workers int) (dx, dw, db []float32) {
		rng := rand.New(rand.NewSource(99))
		l := NewDWConv3(rng, 6, 3, true)
		x := randInput(rng, 3, 6, 10, 10)
		dout := randInput(rng, 3, 6, 10, 10)
		var d *tensor.Tensor
		withParallelism(workers, workers, func() {
			l.Forward([]*tensor.Tensor{x}, true)
			d = l.Backward([]*tensor.Tensor{x}, dout)[0]
		})
		return d.Data, l.Weight.G.Data, l.Bias.G.Data
	}
	dxS, dwS, dbS := run(1)
	dxP, dwP, dbP := run(4)
	// Channel partitioning preserves the per-channel accumulation order
	// exactly, so all three gradients must be bitwise identical.
	if d := maxAbsDiff(dxS, dxP); d != 0 {
		t.Errorf("dx differs by %g", d)
	}
	if d := maxAbsDiff(dwS, dwP); d != 0 {
		t.Errorf("dW differs by %g", d)
	}
	if d := maxAbsDiff(dbS, dbP); d != 0 {
		t.Errorf("dBias differs by %g", d)
	}
}

// TestConvGradientsParallel re-runs the finite-difference gradient checks
// with the batch-parallel backward engaged (batch > 1, forced workers).
func TestConvGradientsParallel(t *testing.T) {
	withParallelism(4, 4, func() {
		rng := rand.New(rand.NewSource(21))
		l := NewConv2D(rng, 2, 3, 3, 1, 1, true)
		checkLayerGradients(t, l, randInput(rng, 4, 2, 5, 4), true)

		dw := NewDWConv3(rng, 3, 3, true)
		checkLayerGradients(t, dw, randInput(rng, 4, 3, 5, 4), true)
	})
}

// TestConv2DForwardSteadyStateAllocs is the allocation contract of the
// layers' own batch loop (the layer walk's; the inference plan's is
// TestGraphInferenceSteadyStateAllocs). A warm Conv2D or DWConv3 forward
// allocates what tensor.New of its output allocates and nothing else —
// scratch and views are cached on the layer, and the images are dealt to
// lanes, the planes to leaf loops, on the GEMM worker pool — at one worker
// and at two, on a batch the lanes share evenly and on one that leaves lane 0
// a remainder.
func TestConv2DForwardSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	conv := NewConv2D(rng, 8, 16, 3, 1, 1, true)
	dw := NewDWConv3(rng, 8, 3, false)
	outputOnly := func(workers int) {
		for _, n := range []int{2, 3} {
			x := randInput(rng, n, 8, 16, 16)
			xs := []*tensor.Tensor{x}
			for _, l := range []Layer{conv, dw} {
				// Dimensions read at run time and a result that escapes, as in
				// the layers: the variadic shape argument is then one of New's
				// allocations.
				shape := l.Forward(xs, false).Shape()
				var out *tensor.Tensor
				outAllocs := testing.AllocsPerRun(20, func() { out = tensor.New(shape[0], shape[1], shape[2], shape[3]) })
				runtime.KeepAlive(out)
				fwd := func() { l.Forward(xs, false) }
				fwd() // warm layer caches and the GEMM scratch pool
				if got := testing.AllocsPerRun(20, fwd); got != outAllocs {
					t.Errorf("%s %d-worker forward of %d: %v allocs/op, want the output tensor's %v", l.Name(), workers, n, got, outAllocs)
				}
			}
		}
	}
	withParallelism(1, 1, func() { outputOnly(1) })
	withParallelism(2, 2, func() { outputOnly(2) })
}

// TestNoForwardOperandOnLayers is the structural half of
// TestLanesShareNoOperand: the inference plan's lanes call the layers and the
// plan's own nodes side by side, so none of them may have a field that could
// hold an operand of a forward in flight — a feature-map slice, a GEMM
// epilogue, a bound loop body — directly or in a struct field. The fields
// that hold one for another reason are named here.
func TestNoForwardOperandOnLayers(t *testing.T) {
	allowed := map[string]string{
		"Conv2D.dbImg":      "Backward's per-image bias-gradient staging",
		"Conv2D.fwd":        "the layer walk's own batch in flight; the plan's lanes never read it",
		"BatchNorm.mean":    "a training forward's batch statistics, for Backward: C floats, not the batch",
		"BatchNorm.invStd":  "a training forward's batch statistics, for Backward: C floats, not the batch",
		"planNode.inv":      "written as a forward begins, before its lanes start",
		"planNode.packed":   "written as a forward begins, before its lanes start",
		"PlanCache.arena":   "the executor's, written before its lanes start: each lane reads its own region",
		"PlanCache.x":       "the executor's forward in flight, written before its lanes start",
		"PlanCache.outs":    "the executor's forward in flight, a row per sample, written before its lanes start",
		"PlanCache.observe": "the executor's forward in flight, written before its lanes start",
	}
	operand := []reflect.Type{reflect.TypeOf([]float32(nil)), reflect.TypeOf([][]float32(nil)), reflect.TypeOf(tensor.RowEpilogue{})}
	for _, v := range []any{Conv2D{}, DWConv3{}, BatchNorm{}, ReLU{}, MaxPool{}, Reorg{}, Concat{}, Band{}, Step{}, planNode{}, Plan{}, PlanCache{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := typ.Name() + "." + f.Name
			if _, ok := allowed[name]; ok {
				continue
			}
			holds := f.Type.Kind() == reflect.Func || slices.Contains(operand, f.Type)
			for j := 0; f.Type.Kind() == reflect.Struct && j < f.Type.NumField(); j++ {
				ft := f.Type.Field(j).Type
				holds = holds || ft.Kind() == reflect.Func || slices.Contains(operand, ft)
			}
			if holds {
				t.Errorf("%s (%v) could hold an operand of a forward in flight; operands are arguments, a lane's state is the lane's", name, f.Type)
			}
		}
	}
}

// TestNoLayerKeepsABatch: a layer's Backward takes the inputs of the forward
// it differentiates as arguments, from the graph's tape, so no layer has a
// field that could keep a batch or its shape — a tensor or an []int — but for
// BatchNorm's running statistics, which are the model's.
func TestNoLayerKeepsABatch(t *testing.T) {
	allowed := map[string]bool{"BatchNorm.RunMean": true, "BatchNorm.RunVar": true}
	batch, shape := reflect.TypeOf((*tensor.Tensor)(nil)), reflect.TypeOf([]int(nil))
	for _, v := range []any{Conv2D{}, DWConv3{}, Linear{}, ReLU{}, MaxPool{}, BatchNorm{}, Concat{}, Reorg{}, Flatten{}, Add{}, Dropout{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if name := typ.Name() + "." + f.Name; (f.Type == batch || f.Type == shape) && !allowed[name] {
				t.Errorf("%s (%v) could keep a forward's batch or its shape; Backward takes its inputs as arguments", name, f.Type)
			}
		}
	}
}
