package nn_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

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
					want := g.Walk(x, nil)
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

// TestPlanBaselines runs the baselines off SkyNet's path through the plan:
// VGG-16 and MobileNetV1 with their k×k and strided convolutions on per-lane
// im2col scratch, the ResNets with their Adds, AlexNet with its classifier —
// Flatten and eval-mode Dropout as copies, each Linear one GEMM per sample.
// Every one takes two lanes and an arena on two workers, is the layer walk's
// bits at every batch, each frame of a batch its own forward's — which a
// Linear's GEMM over the whole batch, its kernel picked by the batch size, was
// not — and leaves on every layer the batch's geometry Cost reads, as much as
// the walk does.
func TestPlanBaselines(t *testing.T) {
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
			for _, b := range []int{3, 1, 5} {
				x := randBatch(rng, b, 3, 48, 48)
				want := g.Walk(x, nil)
				wantMACs, wantBytes := layerCost(g)
				parallelism(2, func() {
					requireSameBits(t, fmt.Sprintf("batch %d", b), g.Forward(x, false), want)
					if macs, bytes := layerCost(g); macs != wantMACs || bytes != wantBytes {
						t.Fatalf("batch %d: Cost after the inference forward = (%d, %d), after the layer walk (%d, %d)", b, macs, bytes, wantMACs, wantBytes)
					}
					per, outPer := x.Len()/b, want.Len()/b
					for i := 0; i < b; i++ {
						one := g.Forward(tensor.FromSlice(x.Data[i*per:(i+1)*per], 1, 3, 48, 48), false)
						requireSameBits(t, fmt.Sprintf("frame %d of batch %d alone", i, b), one,
							tensor.FromSlice(want.Data[i*outPer:(i+1)*outPer], one.Shape()...))
					}
				})
				if arena, lanes := nn.Arena(nn.Executor(g)); lanes != 2 || len(arena) == 0 {
					t.Fatalf("batch %d on two workers has left %d lanes and an arena of %d elements, want 2 lanes and an arena", b, lanes, len(arena))
				}
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
// to read it, or did a lane read its neighbour's region, NaNs would reach the
// output. Batches and worker counts shrink and grow — one lane, two, three —
// and the input shape changes, so that regions and slots are also cut from an
// arena sized for another forward.
func TestPlanArenaLiveness(t *testing.T) {
	g, rng := skyNetC(0.25, 13)
	xs := []*tensor.Tensor{randBatch(rng, 2, 3, 32, 64), randBatch(rng, 5, 3, 32, 64), randBatch(rng, 1, 3, 32, 64), randBatch(rng, 2, 3, 16, 16)}
	var want []*tensor.Tensor
	for _, x := range xs {
		want = append(want, g.Walk(x, nil))
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
	requireSameBits(t, "fresh model", before, g.Walk(x, nil))
	changed := func(what string) {
		t.Helper()
		after := g.Forward(x, false)
		requireSameBits(t, "after "+what, after, g.Walk(x, nil))
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
				p := nn.Compile(g, x.Shape(), nil)
				dst := tensor.New(p.OutShape(x.Dim(0))...)
				p.RunInto(dst, x, nil)
				requireSameBits(t, "RunInto", dst, g.Forward(x, false))
				if got := testing.AllocsPerRun(10, func() { p.RunInto(dst, x, nil) }); got != 0 {
					t.Errorf("%d workers, batch %d: %v allocs per RunInto, want 0", workers, x.Dim(0), got)
				}
			}
		})
	}
}

// layerCost sums the Cost of every layer that implements nn.Coster: the
// MACs and bytes of g's most recent forward, as bench/ reads them.
func layerCost(g *nn.Graph) (macs, bytes int64) {
	for _, n := range g.Nodes {
		if c, ok := n.Layer.(nn.Coster); ok {
			m, b := c.Cost()
			macs += m
			bytes += b
		}
	}
	return macs, bytes
}

// TestCostsOfNamesAShapeTheGraphCannotTake: an input the graph cannot take,
// one that pools a map to nothing or has the wrong channel count, is an error
// naming the input; any other input gets Costs' table.
func TestCostsOfNamesAShapeTheGraphCannotTake(t *testing.T) {
	g := backbone.SkyNetC(rand.New(rand.NewSource(1)), backbone.Config{Width: 0.125, InC: 3, HeadChannels: 10, ReLU6: true})
	for _, in := range [][]int{{1, 3, 4, 4}, {1, 1, 48, 96}} {
		if rows, err := nn.CostsOf(g, in); err == nil || rows != nil || !strings.Contains(err.Error(), fmt.Sprint(in[1:])) {
			t.Fatalf("CostsOf at %v: %d rows, err %v; want an error naming %v", in, len(rows), err, in[1:])
		}
	}
	rows, err := nn.CostsOf(g, []int{1, 3, 48, 96})
	if err != nil || !reflect.DeepEqual(rows, nn.Costs(g, []int{1, 3, 48, 96})) {
		t.Fatalf("CostsOf at a valid input: err %v, or rows differ from Costs", err)
	}
}

// TestCostsMatchTheWalk: the price table is what a batch-1 layer walk leaves
// on the model, for six backbones at two input sizes. Row i's output shape
// is OutShapes[i], its input shape is that of the node's first input, its
// MACs and bytes are the layer's Cost (zero for a layer without one), and its
// parameter count is the layer's.
func TestCostsMatchTheWalk(t *testing.T) {
	cfg := backbone.Config{Width: 0.125, InC: 3, HeadChannels: 10, ReLU6: true}
	for _, m := range []struct {
		name  string
		build func(rng *rand.Rand, h, w int) *nn.Graph
	}{
		{"SkyNetA", func(rng *rand.Rand, _, _ int) *nn.Graph { return backbone.SkyNetA(rng, cfg) }},
		{"SkyNetB", func(rng *rand.Rand, _, _ int) *nn.Graph { return backbone.SkyNetB(rng, cfg) }},
		{"SkyNetC", func(rng *rand.Rand, _, _ int) *nn.Graph { return backbone.SkyNetC(rng, cfg) }},
		{"AlexNet", func(rng *rand.Rand, h, w int) *nn.Graph { return backbone.AlexNet(rng, cfg, h, w, 5) }},
		{"ResNet18", func(rng *rand.Rand, _, _ int) *nn.Graph { return backbone.ResNet18(rng, cfg) }},
		{"MobileNetV1", func(rng *rand.Rand, _, _ int) *nn.Graph { return backbone.MobileNetV1(rng, cfg) }},
	} {
		for _, size := range [][2]int{{48, 48}, {64, 96}} {
			rng := rand.New(rand.NewSource(21))
			g := m.build(rng, size[0], size[1])
			x := randBatch(rng, 1, 3, size[0], size[1])
			g.Walk(x, nil)
			costs := nn.Costs(g, x.Shape())
			var params int64
			for i, c := range costs {
				n := g.Nodes[i]
				in := x.Shape()
				if j := n.Inputs[0]; j != nn.GraphInput {
					in = g.OutShapes[j]
				}
				var macs, bytes int64
				if l, ok := n.Layer.(nn.Coster); ok {
					macs, bytes = l.Cost()
				}
				var p int64
				for _, q := range n.Layer.Params() {
					p += int64(q.W.Len())
				}
				if c.Layer != n.Layer || fmt.Sprint(c.In) != fmt.Sprint(in) || fmt.Sprint(c.Out) != fmt.Sprint(g.OutShapes[i]) ||
					c.MACs != macs || c.Bytes != bytes || c.Params != p {
					t.Fatalf("%s at %v, node %d (%s): row %v %v %d MACs %d bytes %d params; the walk %v %v %d %d %d",
						m.name, size, i, n.Layer.Name(), c.In, c.Out, c.MACs, c.Bytes, c.Params, in, g.OutShapes[i], macs, bytes, p)
				}
				params += c.Params
			}
			if params != g.NumParams() {
				t.Fatalf("%s at %v: the rows hold %d parameters, the graph %d", m.name, size, params, g.NumParams())
			}
		}
	}
}

// TestCostAndOutShapesAfterInference: the benchmark module runs an inference
// forward and then asks the graph for its shapes, which must describe that
// forward, and every layer for its cost. An inference forward writes no
// layer, so Cost is still what the layer walk's last forward left — here a
// training forward at another batch and size —, the Bundle steps' layers
// included.
func TestCostAndOutShapesAfterInference(t *testing.T) {
	g, rng := skyNetC(0.25, 16)
	x, walked := randBatch(rng, 3, 3, 32, 64), randBatch(rng, 1, 3, 16, 48)
	requireBundleSteps(t, g, x)
	g.Forward(walked, true)
	parallelism(2, func() { g.Forward(x, false) })
	if _, lanes := nn.Arena(nn.Executor(g)); lanes != 2 {
		t.Fatalf("a batch of 3 on two workers ran on %d lanes, want 2", lanes)
	}
	macs, bytes := layerCost(g)
	shapes := make([][]int, len(g.OutShapes))
	for i, s := range g.OutShapes {
		shapes[i] = append([]int(nil), s...)
	}

	ref, _ := skyNetC(0.25, 16)
	ref.Walk(walked, nil)
	wantMACs, wantBytes := layerCost(ref)
	if macs != wantMACs || bytes != wantBytes || macs == 0 {
		t.Fatalf("Cost after an inference forward = %d MACs, %d bytes; after the layer walk it follows %d, %d", macs, bytes, wantMACs, wantBytes)
	}
	outs := make([]*tensor.Tensor, len(ref.Nodes))
	ref.Walk(x, func(i int, t *tensor.Tensor) { outs[i] = t })
	for i, o := range outs {
		if fmt.Sprint(shapes[i]) != fmt.Sprint(o.Shape()) || fmt.Sprint(ref.OutShapes[i]) != fmt.Sprint(o.Shape()) {
			t.Fatalf("OutShapes[%d] = %v after an inference forward and %v after the walk, the node produced %v", i, shapes[i], ref.OutShapes[i], o.Shape())
		}
	}
}

// TestBackwardNeedsTrainingForward: Backward takes back the tape of a
// training forward, and without one — no forward at all, or a Backward that
// has taken the tape already — it refuses, and says why.
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
		{"a Backward of the same forward", func(g *nn.Graph) { g.Forward(x, true); g.Backward(dout) }},
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

// TestBackwardAfterInferenceForwards: Backward reads the training forward's
// inputs from the graph's tape, so what runs between the two — an inference
// forward on the plan's lanes at another shape, the eval-mode layer walk at
// another batch and shape — changes no bit of any gradient.
func TestBackwardAfterInferenceForwards(t *testing.T) {
	grads := func(between func(g *nn.Graph)) (*tensor.Tensor, []*nn.Param) {
		g, rng := skyNetC(0.25, 19)
		out := g.Forward(randBatch(rng, 3, 3, 32, 64), true)
		dout := randBatch(rng, out.Shape()...)
		between(g)
		return g.Backward(dout), g.Params()
	}
	wantIn, want := grads(func(*nn.Graph) {})
	gotIn, got := grads(func(g *nn.Graph) {
		rng := rand.New(rand.NewSource(20))
		g.Forward(randBatch(rng, 4, 3, 16, 32), false)
		g.Walk(randBatch(rng, 2, 3, 48, 96), nil)
	})
	requireSameBits(t, "input gradient", gotIn, wantIn)
	for i, p := range got {
		requireSameBits(t, fmt.Sprintf("param %d (%s) gradient", i, p.Name), p.G, want[i].G)
	}
}

// TestHookedInferenceSeesEveryNode: the oracle's Walk with a visit hands the
// visit each node's own fresh tensor, as the node's layer computes it from
// its inputs as the visit left them, lets it rewrite that tensor for the
// nodes downstream, and keeps none of it: the inference forward afterwards is
// the plain walk's.
func TestHookedInferenceSeesEveryNode(t *testing.T) {
	g, rng := skyNetC(0.25, 18)
	x := randBatch(rng, 2, 3, 32, 64)
	seen, left := make([]*tensor.Tensor, len(g.Nodes)), make([]*tensor.Tensor, len(g.Nodes))
	got := g.Walk(x, func(i int, out *tensor.Tensor) {
		seen[i] = out.Clone()
		out.Scale(0.5)
		left[i] = out
	})
	for i, n := range g.Nodes {
		ins := make([]*tensor.Tensor, len(n.Inputs))
		for k, j := range n.Inputs {
			ins[k] = x
			if j != nn.GraphInput {
				ins[k] = left[j]
			}
		}
		requireSameBits(t, fmt.Sprintf("node %d as the visit saw it", i), seen[i], n.Layer.Forward(ins, false))
	}
	requireSameBits(t, "visited output", got, left[len(left)-1])
	requireSameBits(t, "inference forward afterwards", g.Forward(x, false), g.Walk(x, nil))
}

// TestRewritingObserverMatchesWalk is the observer's rewrite contract, on
// which quant's number-format emulation rests: under a mask marking every
// node, a plan's observer is shown each node's map whole and once per sample,
// and what it leaves there is what the consumers read — so rounding every
// map in the observer gives, bit for bit, the oracle's Walk rounding every
// node's output in its visit. SkyNet A/B/C and the AlexNet classifier at
// batch 1 and 3.
func TestRewritingObserverMatchesWalk(t *testing.T) {
	round := func(data []float32) { // a rewrite that is not linear
		for i, v := range data {
			data[i] = float32(math.RoundToEven(float64(v)*4)) / 4
		}
	}
	for _, m := range []struct {
		name  string
		build func(rng *rand.Rand) *nn.Graph
		h, w  int
	}{
		{"SkyNetA", func(rng *rand.Rand) *nn.Graph {
			return backbone.SkyNet(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true}, backbone.VariantA)
		}, 32, 64},
		{"SkyNetB", func(rng *rand.Rand) *nn.Graph {
			return backbone.SkyNet(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true}, backbone.VariantB)
		}, 32, 64},
		{"SkyNetC", func(rng *rand.Rand) *nn.Graph {
			return backbone.SkyNet(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true}, backbone.VariantC)
		}, 32, 64},
		{"AlexNet", func(rng *rand.Rand) *nn.Graph {
			return backbone.AlexNet(rng, backbone.Config{Width: 0.0625, InC: 3}, 48, 48, 5)
		}, 48, 48},
	} {
		rng := rand.New(rand.NewSource(19))
		g := m.build(rng)
		unsettle(g, rng)
		every := make([]bool, len(g.Nodes))
		for i := range every {
			every[i] = true
		}
		for _, b := range []int{1, 3} {
			x := randBatch(rng, b, 3, m.h, m.w)
			want := g.Walk(x, func(_ int, out *tensor.Tensor) { round(out.Data) })
			seen := make([]int, len(g.Nodes))
			got := nn.Compile(g, x.Shape(), every).Run(x, func(i int, data []float32) {
				seen[i]++
				round(data)
			})
			requireSameBits(t, fmt.Sprintf("%s, batch %d", m.name, b), got, want)
			for i, n := range seen {
				if n != b {
					t.Fatalf("%s, batch %d: node %d shown %d times", m.name, b, i, n)
				}
			}
		}
	}
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
