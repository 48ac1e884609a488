package nn_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/nn"
	"skynet/internal/prune"
	"skynet/internal/tensor"
)

// walk is the reference the inference plan is held to: every node's own
// Layer.Forward in eval mode, one fresh tensor per node — what
// Graph.Forward(x, false) did before it had a plan. visit, when non-nil,
// sees (and may rewrite) each node's output before its consumers run.
func walk(g *nn.Graph, x *tensor.Tensor, visit func(i int, out *tensor.Tensor)) *tensor.Tensor {
	outs := make([]*tensor.Tensor, len(g.Nodes))
	for i, n := range g.Nodes {
		ins := make([]*tensor.Tensor, len(n.Inputs))
		for k, j := range n.Inputs {
			ins[k] = x
			if j != nn.GraphInput {
				ins[k] = outs[j]
			}
		}
		outs[i] = n.Layer.Forward(ins, false)
		if visit != nil {
			visit(i, outs[i])
		}
	}
	if g.Output >= 0 {
		return outs[g.Output]
	}
	return outs[len(outs)-1]
}

// parallelism pins the layer-level and GEMM-level worker counts for fn.
func parallelism(workers int, fn func()) {
	oldNN, oldT := nn.MaxParallelism, tensor.MaxParallelism
	nn.MaxParallelism, tensor.MaxParallelism = workers, workers
	defer func() { nn.MaxParallelism, tensor.MaxParallelism = oldNN, oldT }()
	fn()
}

// unsettle gives every batch norm non-trivial running statistics and every
// bias a value, so that a fused tail that dropped or reordered a term shows.
func unsettle(g *nn.Graph, rng *rand.Rand) {
	for _, n := range g.Nodes {
		switch l := n.Layer.(type) {
		case *nn.BatchNorm:
			l.Gamma.W.RandUniform(rng, 0.5, 1.5)
			l.Beta.W.RandNormal(rng, 0, 0.3)
			l.RunMean.RandNormal(rng, 0, 0.3)
			l.RunVar.RandUniform(rng, 0.5, 2)
		case *nn.Conv2D:
			if l.Bias != nil {
				l.Bias.W.RandNormal(rng, 0, 0.3)
			}
		}
	}
}

func randBatch(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.RandNormal(rng, 0, 1)
	return x
}

// requireSameBits fails unless got and want agree in shape and in every bit.
func requireSameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, layer walk gives %v", what, got.Shape(), want.Shape())
	}
	for i, v := range got.Data {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v (%#08x), layer walk gives %v (%#08x)", what, i,
				v, math.Float32bits(v), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// TestPlanMatchesLayerWalk is the plan's contract: Graph.Forward(x, false)
// returns, bit for bit, what walking the layers returns — for every SkyNet
// variant at three widths (1.0 has k = 1280 > one GEMM k block in model C's
// last bundle, where the fused tail has to wait for the last block), ragged
// batches, one to three workers at both levels, and with each row of a
// batch equal to that frame's own single-frame forward.
func TestPlanMatchesLayerWalk(t *testing.T) {
	widths := []float64{0.125, 0.25, 1}
	batches := []int{1, 2, 4, 7}
	if testing.Short() {
		widths, batches = []float64{0.25, 1}, []int{1, 3}
	}
	for _, v := range []backbone.SkyNetVariant{backbone.VariantA, backbone.VariantB, backbone.VariantC} {
		for _, width := range widths {
			t.Run(fmt.Sprintf("SkyNet%s/width%v", v, width), func(t *testing.T) {
				rng := rand.New(rand.NewSource(11))
				g := backbone.SkyNet(rng, backbone.Config{Width: width, InC: 3, HeadChannels: 10, ReLU6: true}, v)
				unsettle(g, rng)
				for _, b := range batches {
					x := randBatch(rng, b, 3, 16, 32)
					want := walk(g, x, nil)
					for _, workers := range []int{1, 2, 3} {
						parallelism(workers, func() {
							requireSameBits(t, fmt.Sprintf("batch %d, %d workers", b, workers), g.Forward(x, false), want)
						})
					}
					per := x.Len() / b
					for i := 0; i < b; i++ {
						row := g.Forward(tensor.FromSlice(x.Data[i*per:(i+1)*per], 1, 3, 16, 32), false)
						requireSameBits(t, fmt.Sprintf("frame %d of batch %d alone", i, b),
							row, tensor.FromSlice(want.Data[i*row.Len():(i+1)*row.Len()], row.Shape()...))
					}
				}
			})
		}
	}
}

// TestPlanFallbackLayers runs the baselines whose layers the executor does
// not lower (Add, GlobalAvgPool, Flatten, Linear, Dropout) or lowers with
// im2col (k×k and strided convolutions): those nodes keep their own Forward
// on views of the arena, between planned neighbours.
func TestPlanFallbackLayers(t *testing.T) {
	cfg := backbone.Config{Width: 0.125, InC: 3, MaxStride: 8}
	for _, m := range []struct {
		name  string
		build func(rng *rand.Rand) *nn.Graph
	}{ // every model takes 48×48 frames
		{"ResNet18", func(rng *rand.Rand) *nn.Graph { return backbone.ResNet18(rng, cfg) }},
		{"ResNet50", func(rng *rand.Rand) *nn.Graph { return backbone.ResNet50(rng, cfg) }},
		{"VGG16", func(rng *rand.Rand) *nn.Graph { return backbone.VGG16(rng, cfg) }},
		{"AlexNet", func(rng *rand.Rand) *nn.Graph { return backbone.AlexNet(rng, cfg, 48, 48, 5) }},
		{"MobileNetV1", func(rng *rand.Rand) *nn.Graph { return backbone.MobileNetV1(rng, cfg) }},
	} {
		t.Run(m.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			g := m.build(rng)
			unsettle(g, rng)
			for _, b := range []int{3, 1} {
				x := randBatch(rng, b, 3, 48, 48)
				want := walk(g, x, nil)
				parallelism(2, func() { requireSameBits(t, fmt.Sprintf("batch %d", b), g.Forward(x, false), want) })
			}
		})
	}
}

// skyNetC is the model the remaining tests share.
func skyNetC(width float64, seed int64) (*nn.Graph, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	g := backbone.SkyNetC(rng, backbone.Config{Width: width, InC: 3, HeadChannels: 10, ReLU6: true})
	unsettle(g, rng)
	return g, rng
}

// requireBundleSteps fails unless g's plan for x has Bundle steps: the tests
// below mean to cover them.
func requireBundleSteps(t *testing.T, g *nn.Graph, x *tensor.Tensor) {
	t.Helper()
	steps, _ := nn.Compile(g, x.Shape(), nil).Steps()
	for _, s := range steps {
		if s.Band != nil {
			return
		}
	}
	t.Fatal("the model's plan has no Bundle step")
}

// TestPlanArenaLiveness poisons every arena slot the moment the plan
// releases it: were a slot handed to a later step while something still had
// to read it, NaNs would reach the output. Batches shrink and grow so that
// slots are also cut from an arena sized for another batch.
func TestPlanArenaLiveness(t *testing.T) {
	g, rng := skyNetC(0.25, 13)
	xs := []*tensor.Tensor{randBatch(rng, 2, 3, 32, 64), randBatch(rng, 5, 3, 32, 64), randBatch(rng, 1, 3, 32, 64), randBatch(rng, 2, 3, 16, 16)}
	var want []*tensor.Tensor
	for _, x := range xs {
		want = append(want, g.Forward(x, false))
	}
	nn.PoisonReleased(t)
	for i, x := range xs {
		requireSameBits(t, fmt.Sprintf("input %d with released slots poisoned", i), g.Forward(x, false), want[i])
		requireSameBits(t, fmt.Sprintf("input %d against the walk", i), want[i], walk(g, x, nil))
	}
}

// TestPlanReadsParametersLive changes the model between two inference
// forwards in every way the repository does — an optimizer step, magnitude
// pruning, a Load, appending a node — and each time the plan must answer as
// the layer walk does on the changed model: it holds structure, no values.
func TestPlanReadsParametersLive(t *testing.T) {
	g, rng := skyNetC(0.25, 14)
	x := randBatch(rng, 2, 3, 32, 64)
	before := g.Forward(x, false)
	requireSameBits(t, "fresh model", before, walk(g, x, nil))
	changed := func(what string) {
		t.Helper()
		after := g.Forward(x, false)
		requireSameBits(t, "after "+what, after, walk(g, x, nil))
		if after.SameShape(before) && bytes.Equal(floatBytes(after), floatBytes(before)) {
			t.Fatalf("%s left the output unchanged: the step changed nothing", what)
		}
		before = after
	}

	var saved bytes.Buffer
	if err := g.Save(&saved); err != nil {
		t.Fatal(err)
	}
	out := g.Forward(x, true) // updates the batch-norm running statistics too
	g.Backward(randBatch(rng, out.Shape()...))
	nn.NewSGD(0.05, 0.9, 0).Step(g.Params())
	changed("an SGD step")

	prune.MagnitudePrune(g, 0.5)
	changed("magnitude pruning")

	if err := g.Load(&saved); err != nil {
		t.Fatal(err)
	}
	changed("a Load")

	g.Add(nn.NewReLU6())
	changed("Graph.Add")
}

func floatBytes(t *tensor.Tensor) []byte {
	b := make([]byte, 0, 4*t.Len())
	for _, v := range t.Data {
		u := math.Float32bits(v)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return b
}

// TestGraphInferenceSteadyStateAllocs is the plan's allocation contract: a
// warm inference forward of SkyNet C allocates its output tensor — the
// caller's — and at one worker nothing else, Bundle steps and their band
// buffers included; beyond one worker the extra is the goroutines of the
// layer loops' splits, so it must not grow with the batch. The worker count
// is read per forward, not frozen in the plan.
func TestGraphInferenceSteadyStateAllocs(t *testing.T) {
	g, rng := skyNetC(0.25, 15)
	small, large := randBatch(rng, 2, 3, 32, 64), randBatch(rng, 6, 3, 32, 64)
	requireBundleSteps(t, g, small)
	warm := func(x *tensor.Tensor) float64 {
		g.Forward(x, false)
		g.Forward(x, false)
		return testing.AllocsPerRun(10, func() { g.Forward(x, false) })
	}
	g.Forward(large, false) // the arena has seen its largest batch
	parallelism(1, func() {
		shape := g.Forward(small, false).Shape()
		var out *tensor.Tensor
		outAllocs := testing.AllocsPerRun(10, func() { out = tensor.New(shape...) })
		runtime.KeepAlive(out)
		for _, x := range []*tensor.Tensor{small, large} {
			if got := warm(x); got != outAllocs {
				t.Errorf("one worker, batch %d: %v allocs per forward, want the output tensor's %v", x.Dim(0), got, outAllocs)
			}
		}
	})
	parallelism(2, func() {
		if s, l := warm(small), warm(large); l > s {
			t.Errorf("two workers: %v allocs per forward at batch %d, %v at batch %d; the count must not grow with the batch", l, large.Dim(0), s, small.Dim(0))
		}
	})
}

// TestCostAndOutShapesAfterInference: the hardware models run one inference
// forward and then ask every layer for its cost and the graph for its
// shapes. Both must describe that forward, and no layer may still hold its
// input batch. A Bundle step runs two layers' arithmetic without their
// forwardInto, and has to leave on both the geometry Cost reads.
func TestCostAndOutShapesAfterInference(t *testing.T) {
	g, rng := skyNetC(0.25, 16)
	x := randBatch(rng, 2, 3, 32, 64)
	requireBundleSteps(t, g, x)
	g.Forward(x, false)
	macs, bytes := g.Cost()
	shapes := make([][]int, len(g.OutShapes))
	for i, s := range g.OutShapes {
		shapes[i] = append([]int(nil), s...)
	}

	ref, _ := skyNetC(0.25, 16)
	outs := make([]*tensor.Tensor, len(ref.Nodes))
	ref.FMHook = func(i int, t *tensor.Tensor) { outs[i] = t }
	ref.Forward(x, true)
	wantMACs, wantBytes := ref.Cost()
	if macs != wantMACs || bytes != wantBytes || macs == 0 {
		t.Fatalf("Cost after an inference forward = %d MACs, %d bytes; after a training forward %d, %d", macs, bytes, wantMACs, wantBytes)
	}
	for i, o := range outs {
		if fmt.Sprint(shapes[i]) != fmt.Sprint(o.Shape()) {
			t.Fatalf("OutShapes[%d] = %v after an inference forward, the node produced %v", i, shapes[i], o.Shape())
		}
	}
}

// TestBackwardNeedsTrainingForward: a Backward after an inference forward
// used to differentiate whatever an older training pass had left in the
// layers. It now refuses, and says why.
func TestBackwardNeedsTrainingForward(t *testing.T) {
	g, rng := skyNetC(0.125, 17)
	x := randBatch(rng, 1, 3, 16, 16)
	dout := randBatch(rng, g.Forward(x, true).Shape()...)
	g.Backward(dout)
	for _, prep := range []struct {
		name string
		do   func(g *nn.Graph)
	}{
		{"no forward at all", func(g *nn.Graph) {}},
		{"an inference forward after a training one", func(g *nn.Graph) { g.Forward(x, true); g.Forward(x, false) }},
	} {
		fresh, _ := skyNetC(0.125, 17)
		prep.do(fresh)
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "Forward(x, true)") {
					t.Errorf("Backward after %s: recovered %q, want a panic naming Forward(x, true)", prep.name, msg)
				}
			}()
			fresh.Backward(dout)
		}()
	}
}

// TestHookedInferenceSeesEveryNode: with an FMHook the same executor runs
// unfused, hands the hook each node's own fresh tensor — which the hook may
// rewrite for the nodes downstream — and keeps none of them.
func TestHookedInferenceSeesEveryNode(t *testing.T) {
	g, rng := skyNetC(0.25, 18)
	x := randBatch(rng, 2, 3, 32, 64)
	seen := make([]*tensor.Tensor, len(g.Nodes))
	g.FMHook = func(i int, t *tensor.Tensor) {
		seen[i] = t.Clone()
		t.Scale(0.5)
	}
	got := g.Forward(x, false)
	g.FMHook = nil

	want := walk(g, x, func(i int, out *tensor.Tensor) {
		requireSameBits(t, fmt.Sprintf("node %d as the hook saw it", i), seen[i], out)
		out.Scale(0.5)
	})
	requireSameBits(t, "hooked output", got, want)
	requireSameBits(t, "unhooked forward afterwards", g.Forward(x, false), walk(g, x, nil))
}

// TestDWConvInteriorBorderSplit holds DWConv3's branch-free interior and
// its border ring to the one-loop form they replaced — every tap tested
// against the image edge, taps added to the bias in ascending (ky, kx) —
// for every plane size from 1×1 up and both kernel sizes the search uses.
func TestDWConvInteriorBorderSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, k := range []int{3, 5} {
		l := nn.NewDWConv3(rng, 2, k, true)
		l.Bias.W.RandNormal(rng, 0, 1)
		for h := 1; h <= 19; h++ {
			for w := 1; w <= 19; w++ {
				x := randBatch(rng, 2, 2, h, w)
				got := l.Forward([]*tensor.Tensor{x}, false)
				want := tensor.New(2, 2, h, w)
				for p := 0; p < 4; p++ {
					ker, in := l.Weight.W.Data[p%2*k*k:], x.Data[p*h*w:]
					for oy := 0; oy < h; oy++ {
						for ox := 0; ox < w; ox++ {
							s := l.Bias.W.Data[p%2]
							for ky := 0; ky < k; ky++ {
								for kx := 0; kx < k; kx++ {
									if iy, ix := oy-k/2+ky, ox-k/2+kx; iy >= 0 && iy < h && ix >= 0 && ix < w {
										s += in[iy*w+ix] * ker[ky*k+kx]
									}
								}
							}
							want.Data[(p*h+oy)*w+ox] = s
						}
					}
				}
				requireSameBits(t, fmt.Sprintf("k=%d %dx%d", k, h, w), got, want)
			}
		}
	}
}
