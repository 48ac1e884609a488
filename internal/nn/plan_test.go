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
func parallelism(n int, fn func()) { workers(n, n, fn) }

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

// TestPlanFallbackLayers runs the baselines off SkyNet's path. Those the
// executor lowers whole — VGG-16 and MobileNetV1 with their k×k and strided
// convolutions on per-lane im2col scratch, the ResNets with their Adds — take
// lanes like SkyNet. AlexNet has layer kinds it does not lower (Flatten,
// Linear, Dropout): such a graph's inference forward is the layer walk on the
// whole batch, so that it is the walk's bits at every batch — a Linear's GEMM
// picks its kernel by m·n·k, m the batch, and a batch of 5 is not its five
// frames' own forwards there — and leaves the batch's geometry on every layer.
func TestPlanFallbackLayers(t *testing.T) {
	cfg := backbone.Config{Width: 0.125, InC: 3, MaxStride: 8}
	walked := 0
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
			for _, b := range []int{3, 1, 5} {
				x := randBatch(rng, b, 3, 48, 48)
				want := walk(g, x, nil)
				parallelism(2, func() { requireSameBits(t, fmt.Sprintf("batch %d", b), g.Forward(x, false), want) })
				wantLanes := 2
				if hasUnlowered(g) {
					wantLanes = 0
				}
				if arena, lanes := nn.Arena(g); lanes != wantLanes || (len(arena) == 0) != (wantLanes == 0) {
					t.Fatalf("batch %d on two workers has left %d lanes and an arena of %d elements; a graph with unlowered kinds (%v) is walked, the others take two lanes", b, lanes, len(arena), hasUnlowered(g))
				}
				if !hasUnlowered(g) {
					continue
				}
				walked++
				// Cost describes the whole batch on every layer: as much as
				// the layer walk itself leaves.
				macs, bytes := g.Cost()
				walk(g, x, nil)
				if m, b := g.Cost(); macs != m || bytes != b {
					t.Fatalf("batch %d: Cost after the inference forward = (%d, %d), after the layer walk (%d, %d)", b, macs, bytes, m, b)
				}
			}
		})
	}
	if walked == 0 {
		t.Fatal("no model with an unlowered layer kind among the baselines")
	}
}

// hasUnlowered reports whether g has a layer of a kind the executor does not
// lower.
func hasUnlowered(g *nn.Graph) bool {
	for _, n := range g.Nodes {
		switch n.Layer.(type) {
		case *nn.Conv2D, *nn.DWConv3, *nn.BatchNorm, *nn.ReLU, *nn.MaxPool, *nn.Reorg, *nn.Add, *nn.Concat:
		default:
			return true
		}
	}
	return false
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
// to read it, or did a lane read its neighbour's region, NaNs would reach the
// output. Batches and worker counts shrink and grow — one lane, two, three —
// and the input shape changes, so that regions and slots are also cut from an
// arena sized for another forward.
func TestPlanArenaLiveness(t *testing.T) {
	g, rng := skyNetC(0.25, 13)
	xs := []*tensor.Tensor{randBatch(rng, 2, 3, 32, 64), randBatch(rng, 5, 3, 32, 64), randBatch(rng, 1, 3, 32, 64), randBatch(rng, 2, 3, 16, 16)}
	var want []*tensor.Tensor
	for _, x := range xs {
		want = append(want, walk(g, x, nil))
	}
	nn.PoisonReleased(t)
	for _, workers := range []int{1, 2, 3, 2} {
		parallelism(workers, func() {
			for i, x := range xs {
				requireSameBits(t, fmt.Sprintf("input %d on %d workers with released slots poisoned", i, workers), g.Forward(x, false), want[i])
			}
		})
	}
}

// TestPlanReadsParametersLive changes the model between two inference
// forwards in every way a caller can — an optimizer step, weights zeroed in
// place (as pruning would), a Load, appending a node — and each time the plan must answer as
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

	w := g.Params()[1].W.Data // the first point-wise conv's weights
	clear(w[:len(w)/2])
	changed("zeroing half a layer's weights")

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
// caller's — and nothing else, at every worker count and batch size: the
// lanes run on the GEMM pool, and so do the Bundle steps and depth-wise
// planes a lone lane splits. The worker count is read per forward, not frozen
// in the plan.
func TestGraphInferenceSteadyStateAllocs(t *testing.T) {
	g, rng := skyNetC(0.25, 15)
	small, large := randBatch(rng, 2, 3, 32, 64), randBatch(rng, 6, 3, 32, 64)
	requireBundleSteps(t, g, small)
	warm := func(x *tensor.Tensor) float64 {
		g.Forward(x, false)
		g.Forward(x, false)
		return testing.AllocsPerRun(10, func() { g.Forward(x, false) })
	}
	shape := g.Forward(small, false).Shape()
	var out *tensor.Tensor
	outAllocs := testing.AllocsPerRun(10, func() { out = tensor.New(shape...) })
	runtime.KeepAlive(out)
	for _, workers := range []int{1, 2, 3} {
		parallelism(workers, func() {
			for _, x := range []*tensor.Tensor{small, large} {
				if got := warm(x); got != outAllocs {
					t.Errorf("%d workers, batch %d: %v allocs per forward, want the output tensor's %v", workers, x.Dim(0), got, outAllocs)
				}
			}
		})
	}
}

// TestCostAndOutShapesAfterInference: the hardware models run one inference
// forward and then ask every layer for its cost and the graph for its
// shapes. Both must describe that forward, and no layer may still hold its
// input batch. The plan runs the layers' arithmetic a sample at a time, on
// two lanes here, without their forwardInto, and has to leave on every one —
// a Bundle step's two included — the geometry of the whole batch Cost reads.
func TestCostAndOutShapesAfterInference(t *testing.T) {
	g, rng := skyNetC(0.25, 16)
	x := randBatch(rng, 3, 3, 32, 64)
	requireBundleSteps(t, g, x)
	parallelism(2, func() { g.Forward(x, false) })
	if _, lanes := nn.Arena(g); lanes != 2 {
		t.Fatalf("a batch of 3 on two workers ran on %d lanes, want 2", lanes)
	}
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
