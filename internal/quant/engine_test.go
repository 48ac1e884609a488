package quant

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// dwPlaneInt8Ref is the loop qdw.rows replaced, kept as its oracle (with
// the stride and padding the old one fixed at 1 and k/2): every tap tested
// against both image edges.
func dwPlaneInt8Ref(dst, src, ker []int8, h, w, outH, outW, k, stride, pad int, bias int32, mult float32) {
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			acc := bias
			for ky := 0; ky < k; ky++ {
				iy := oy*stride - pad + ky
				if iy < 0 || iy >= h {
					continue
				}
				for kx := 0; kx < k; kx++ {
					ix := ox*stride - pad + kx
					if ix < 0 || ix >= w {
						continue
					}
					acc += int32(ker[ky*k+kx]) * int32(src[iy*w+ix])
				}
			}
			dst[oy*outW+ox] = tensor.RequantizeRNE(acc, mult, -127, 127)
		}
	}
}

// maxPoolCodesRef is the scalar loop maxPoolCodes replaced, kept as its
// oracle.
func maxPoolCodesRef(dst, src []int8, planes, h, w, k int) {
	oh, ow := h/k, w/k
	oi := 0
	for p := 0; p < planes; p++ {
		base := p * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := src[base+oy*k*w+ox*k]
				for ky := 0; ky < k; ky++ {
					row := base + (oy*k+ky)*w + ox*k
					for kx := 0; kx < k; kx++ {
						if v := src[row+kx]; v > best {
							best = v
						}
					}
				}
				dst[oi] = best
				oi++
			}
		}
	}
}

func randCodes(rng *rand.Rand, n int) []int8 {
	c := make([]int8, n)
	for i := range c {
		c[i] = int8(rng.Intn(255) - 127)
	}
	return c
}

// TestInt8DWMatchesOracle holds the interior/border split to the two-branch
// loop, bit for bit, over every small plane, kernel size, stride and padding.
func TestInt8DWMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, k / 2} {
				for h := 1; h <= 7; h++ {
					for w := 1; w <= 7; w++ {
						outH, outW := (h+2*pad-k)/stride+1, (w+2*pad-k)/stride+1
						if h+2*pad < k || w+2*pad < k {
							continue
						}
						src, ker := randCodes(rng, h*w), randCodes(rng, k*k)
						bias, mult := int32(rng.Intn(2001)-1000), 0.002+rng.Float32()*0.01
						got, want := make([]int8, outH*outW), make([]int8, outH*outW)
						q := &qdw{w: ker, ep: tensor.Int8Epilogue{Bias: []int32{bias}, Mult: []float32{mult}}, c: 1, k: k, stride: stride, pad: pad}
						q.rows(got, src, make([]int32, outW), h, w, 0, 0)
						dwPlaneInt8Ref(want, src, ker, h, w, outH, outW, k, stride, pad, bias, mult)
						if !slices.Equal(got, want) {
							t.Fatalf("k=%d stride=%d pad=%d %dx%d: got %v, oracle %v", k, stride, pad, h, w, got, want)
						}
					}
				}
			}
		}
	}
}

// TestMaxPoolCodesMatchesOracle: the unrolled 2×2 body and the general one
// against the scalar loop, odd sizes (cropped bottom/right) included.
func TestMaxPoolCodesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, k := range []int{2, 3} {
		for h := k; h <= 9; h++ {
			for w := k; w <= 9; w++ {
				src := randCodes(rng, 3*h*w)
				got, want := make([]int8, 3*(h/k)*(w/k)), make([]int8, 3*(h/k)*(w/k))
				maxPoolCodes(got, src, 3, h, w, k)
				maxPoolCodesRef(want, src, 3, h, w, k)
				if !slices.Equal(got, want) {
					t.Fatalf("k=%d %dx%d: got %v, oracle %v", k, h, w, got, want)
				}
			}
		}
	}
}

// calibrateByWalk is the calibration CalibrateActivations used to be — every
// node's output observed on an unfused, whole-batch layer walk, each layer's
// own eval-mode Forward — kept as the oracle of the observer on the plan.
func calibrateByWalk(g *nn.Graph, batches []*tensor.Tensor) ActivationClips {
	var inObs observer
	obs := make([]observer, len(g.Nodes))
	for _, b := range batches {
		inObs.observe(b.Data)
		outs := make([]*tensor.Tensor, len(g.Nodes))
		for i, n := range g.Nodes {
			ins := make([]*tensor.Tensor, len(n.Inputs))
			for k, j := range n.Inputs {
				ins[k] = b
				if j != nn.GraphInput {
					ins[k] = outs[j]
				}
			}
			outs[i] = n.Layer.Forward(ins, false)
			obs[i].observe(outs[i].Data)
		}
	}
	out := ActivationClips{Input: inObs.clip(), Node: make([]float32, len(g.Nodes))}
	for i := range obs {
		out.Node[i] = obs[i].clip()
	}
	return out
}

// unitMask marks, beside the forced-float nodes (nil forces none), every
// depth-wise convolution, max-pool and Concat, so no Bundle step forms, no
// Reorg folds and no Concat is laid out: the plan of a unit per layer kind,
// under which every map the int8 engine scales is a step's whole output.
func unitMask(g *nn.Graph, force []bool) []bool {
	mask := make([]bool, len(g.Nodes))
	copy(mask, force)
	for i, n := range g.Nodes {
		switch n.Layer.(type) {
		case *nn.DWConv3, *nn.MaxPool, *nn.Concat:
			mask[i] = true
		}
	}
	return mask
}

// settle gives the batch norms running statistics worth folding.
func settle(g *nn.Graph, rng *rand.Rand) {
	for _, n := range g.Nodes {
		if l, ok := n.Layer.(*nn.BatchNorm); ok {
			l.Gamma.W.RandUniform(rng, 0.5, 1.5)
			l.Beta.W.RandNormal(rng, 0, 0.3)
			l.RunMean.RandNormal(rng, 0, 0.3)
			l.RunVar.RandUniform(rng, 0.5, 2)
		}
	}
}

// TestCalibrationObserverMatchesHook: calibrating on the banded inference
// plan, whose Bundles show their depth-wise and pre-pool maps to the running
// maxima in pieces, gives bit for bit the scale observing the unfused,
// whole-batch layer walk gives (as a feature-map hook on the graph once did)
// for every scale Export reads: the input and the output of every step of the
// unit-per-node plan (nn.Compile under unitMask): chain ends, DW outputs,
// pools, the reorder, the Concat, fallback outputs. SkyNet A/B/C at width 0.25
// over two sample shapes (at 18 rows Bundle 2's input has an odd row count, so
// the row below its last pool window counts), with and without forced nodes
// that split two chains; and SkyNet C at width 1 on 160×320 frames, whose
// Bundles are cut into several bands.
func TestCalibrationObserverMatchesHook(t *testing.T) {
	check := func(name string, g *nn.Graph, batches []*tensor.Tensor, forced []int) {
		t.Helper()
		force := make([]bool, len(g.Nodes))
		for _, i := range forced {
			force[i] = true
		}
		want := calibrateByWalk(g, batches)
		got, err := CalibrateActivations(nn.NewPlanCache(g, force), batches)
		if err != nil {
			t.Fatal(err)
		}
		if got.Input != want.Input {
			t.Fatalf("%s: input clip %v, by the walk %v", name, got.Input, want.Input)
		}
		steps, _ := nn.Compile(g, batches[0].Shape(), unitMask(g, force)).Steps()
		if unforced, _ := nn.Compile(g, batches[0].Shape(), unitMask(g, nil)).Steps(); len(forced) > 0 && len(steps) <= len(unforced) {
			t.Fatalf("%s: the forced nodes split no chain", name)
		}
		for _, s := range steps {
			if got.Node[s.Out] != want.Node[s.Out] {
				t.Fatalf("%s: node %d (%s) clip %v, by the walk %v", name, s.Out, g.Nodes[s.Out].Layer.Name(), got.Node[s.Out], want.Node[s.Out])
			}
		}
	}
	forcings := [][]int{nil, {2, 8}} // a BatchNorm and an activation: two chains end early
	for _, v := range []backbone.SkyNetVariant{backbone.VariantA, backbone.VariantB, backbone.VariantC} {
		for _, forced := range forcings {
			rng := rand.New(rand.NewSource(23))
			g := backbone.SkyNet(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true}, v)
			settle(g, rng)
			batches := []*tensor.Tensor{randBatch(rng, 3, 3, 16, 32), randBatch(rng, 2, 3, 18, 32), randBatch(rng, 1, 3, 16, 32)}
			check(fmt.Sprintf("SkyNet%v/forced%v", v, forced), g, batches, forced)
		}
	}
	if testing.Short() {
		return
	}
	rng := rand.New(rand.NewSource(24))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 1, InC: 3, HeadChannels: 10, ReLU6: true})
	settle(g, rng)
	batches := []*tensor.Tensor{randBatch(rng, 1, 3, 160, 320), randBatch(rng, 1, 3, 160, 320)}
	workers(1, func() { // one worker: a step shows its maps in as many pieces as it has bands
		bands := make([]int, len(g.Nodes))
		nn.Compile(g, batches[0].Shape(), nil).Run(batches[0], func(i int, _ []float32) { bands[i]++ })
		if slices.Max(bands) < 2 {
			t.Fatal("SkyNet C at 160×320 cuts no Bundle into two bands or more")
		}
		for _, forced := range forcings {
			check(fmt.Sprintf("SkyNetC/width1/160x320/forced%v", forced), g, batches, forced)
		}
	})
}

// mixedGraph is a small model off SkyNet's path: a strided k×k convolution
// with im2col, a strided depth-wise one, a stand-alone BatchNorm (float
// fallback), a pool with cropping, a layer kind the engine does not lower
// (Add: a float fallback unit) feeding an int8 unit, and an activation at the
// graph output.
func mixedGraph(rng *rand.Rand) *nn.Graph {
	g := nn.NewGraph()
	g.Add(nn.NewConv2D(rng, 3, 8, 3, 2, 1, true), nn.GraphInput)
	g.Add(nn.NewBatchNorm(8))
	g.Add(nn.NewReLU6())
	dw := nn.NewDWConv3(rng, 8, 3, true)
	dw.Stride = 2
	g.Add(dw)
	g.Add(nn.NewBatchNorm(8))
	g.Add(nn.NewMaxPool(2))
	a := g.Add(nn.NewPWConv1(rng, 8, 8, false))
	b := g.Add(nn.NewReLU(), a)
	g.Add(nn.NewAdd(), a, b)
	g.Add(nn.NewPWConv1(rng, 8, 4, true))
	g.Add(nn.NewReLU6())
	settle(g, rng)
	return g
}

func nrmse(got, want []float32) float64 {
	var se, ref float64
	for i := range want {
		d := float64(got[i] - want[i])
		se += d * d
		ref += float64(want[i]) * float64(want[i])
	}
	return math.Sqrt(se / (ref + 1e-12))
}

// TestMixedGraphCloseToFloat runs mixedGraph through every unit kind and
// both lazy conversions, and pins that an activation ending the graph is
// applied (the dequantizing head used to drop it).
func TestMixedGraphCloseToFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	g := mixedGraph(rng)
	calib := []*tensor.Tensor{randBatch(rng, 4, 3, 22, 30)}
	qm, err := Export(g, calib, ExportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if i8, fl, fused := qm.Stats(); i8 != 6 || fl != 2 || fused != 3 {
		t.Fatalf("units = (%d int8, %d float, %d fused), want (6, 2, 3)", i8, fl, fused)
	}
	x := randBatch(rng, 3, 3, 22, 30)
	want := g.Forward(x, false)
	got := qm.Forward(x, false)
	if !slices.Equal(got.Shape(), want.Shape()) {
		t.Fatalf("int8 output shape %v, float %v", got.Shape(), want.Shape())
	}
	if e := nrmse(got.Data, want.Data); !(e <= 0.2) {
		t.Fatalf("normalized RMSE int8 vs float = %.4f, want <= 0.2", e)
	}
	for i, v := range got.Data {
		if v < 0 || v > 6.05 {
			t.Fatalf("output[%d] = %v escapes the ReLU6 that ends the graph", i, v)
		}
	}
}

// TestExportStridedDWConv: the int8 depth-wise unit takes its stride and
// padding from the layer, as the float forward does (it used to compute a
// stride-1, same-padded result whatever the layer said).
func TestExportStridedDWConv(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, geo := range [][2]int{{2, 1}, {1, 0}, {2, 0}} {
		dw := nn.NewDWConv3(rng, 6, 3, true)
		dw.Stride, dw.Pad = geo[0], geo[1]
		dw.Bias.W.RandNormal(rng, 0, 0.2)
		g := sequential(nn.NewPWConv1(rng, 3, 6, false), dw, nn.NewPWConv1(rng, 6, 4, false))
		qm, err := Export(g, []*tensor.Tensor{randBatch(rng, 4, 3, 13, 17)}, ExportConfig{})
		if err != nil {
			t.Fatal(err)
		}
		x := randBatch(rng, 2, 3, 13, 17)
		want := g.Forward(x, false)
		got := qm.Forward(x, false)
		if !slices.Equal(got.Shape(), want.Shape()) {
			t.Fatalf("stride %d pad %d: int8 output shape %v, float %v", geo[0], geo[1], got.Shape(), want.Shape())
		}
		if e := nrmse(got.Data, want.Data); !(e <= 0.1) {
			t.Fatalf("stride %d pad %d: normalized RMSE int8 vs float = %.4f, want <= 0.1", geo[0], geo[1], e)
		}
	}
}

// TestExportAccumulatorBound: a unit whose accumulator could leave int32 is
// lowered as a float fallback instead of wrapping — a batch-norm shift that
// is astronomically large in accumulator units (it used to saturate
// silently), and a dot product longer than 133 144 taps.
func TestExportAccumulatorBound(t *testing.T) {
	if !tensor.Int8AccumulatorFits(133144, 0) || tensor.Int8AccumulatorFits(133145, 0) ||
		!tensor.Int8AccumulatorFits(9, math.MaxInt32-9*127*127) || tensor.Int8AccumulatorFits(9, math.MaxInt32-9*127*127+1) ||
		tensor.Int8AccumulatorFits(1, math.NaN()) {
		t.Fatal("Int8AccumulatorFits does not draw the line at k·127² + |bias| = MaxInt32")
	}
	rng := rand.New(rand.NewSource(26))
	t.Run("bias", func(t *testing.T) {
		// Inputs and weights of order 1e-3 make one accumulator unit ≈ 1e-10;
		// a batch-norm shift of 5 is then 5e10 units, past int32.
		pw, bn := nn.NewPWConv1(rng, 4, 4, false), nn.NewBatchNorm(4)
		pw.Weight.W.Scale(1e-3)
		bn.Beta.W.Fill(5)
		dw := nn.NewDWConv3(rng, 4, 3, true)
		dw.Weight.W.Scale(1e-5)
		dw.Bias.W.Fill(-30)
		g := sequential(pw, bn, nn.NewReLU6(), nn.NewPWConv1(rng, 4, 4, false), dw, nn.NewPWConv1(rng, 4, 2, false))
		small := func(n int) *tensor.Tensor {
			x := randBatch(rng, n, 4, 6, 6)
			x.Scale(1e-3)
			return x
		}
		qm, err := Export(g, []*tensor.Tensor{small(4)}, ExportConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if i8, fl, fused := qm.Stats(); i8 != 2 || fl != 2 || fused != 0 {
			t.Fatalf("units = (%d int8, %d float, %d fused), want (2, 2, 0): the conv chain and the DW conv must fall back", i8, fl, fused)
		}
		x := small(2)
		want := g.Forward(x, false)
		if e := nrmse(qm.Forward(x, false).Data, want.Data); !(e <= 0.1) {
			t.Fatalf("normalized RMSE int8 vs float = %.4f, want <= 0.1", e)
		}
	})
	t.Run("k", func(t *testing.T) {
		const k = 365 // 365² = 133 225 taps
		conv := nn.NewConv2D(rng, 1, 2, k, 1, 0, false)
		conv.Weight.W.Fill(1) // with inputs at +1 every product is +127²: the sum would wrap
		g := sequential(conv, nn.NewPWConv1(rng, 2, 2, false))
		x := tensor.New(1, 1, k, k)
		x.Fill(1)
		qm, err := Export(g, []*tensor.Tensor{x}, ExportConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if i8, fl, _ := qm.Stats(); i8 != 1 || fl != 1 {
			t.Fatalf("units = (%d int8, %d float), want (1, 1)", i8, fl)
		}
		if e := nrmse(qm.Forward(x, false).Data, g.Forward(x, false).Data); !(e <= 0.05) {
			t.Fatalf("normalized RMSE int8 vs float = %.4f, want <= 0.05", e)
		}
	})
}

// workers pins the worker count — of the lanes, the GEMMs and the plane
// loops — for fn.
func workers(n int, fn func()) {
	oldNN, oldT := nn.MaxParallelism, tensor.MaxParallelism
	nn.MaxParallelism, tensor.MaxParallelism = n, n
	defer func() { nn.MaxParallelism, tensor.MaxParallelism = oldNN, oldT }()
	fn()
}

// engineCases are the models the engine-level properties are checked on:
// SkyNet C (bypass, reorg, concat), the same with forced-float nodes that
// split a chain and put a float producer before an int8 consumer and a
// fallback → fallback edge in the graph, and mixedGraph.
func engineCases(t *testing.T) map[string]*QuantizedModel {
	t.Helper()
	rng := rand.New(rand.NewSource(27))
	sky := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	settle(sky, rng)
	mixed := mixedGraph(rng)
	cases := map[string]*QuantizedModel{}
	for name, c := range map[string]struct {
		g   *nn.Graph
		cfg ExportConfig
	}{
		"SkyNetC":        {sky, ExportConfig{}},
		"SkyNetC/forced": {sky, ExportConfig{ForceFloat: []int{0, 1, 2, 9}}},
		"mixed":          {mixed, ExportConfig{}},
	} {
		qm, err := Export(c.g, []*tensor.Tensor{randBatch(rng, 4, 3, 32, 64)}, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = qm
	}
	return cases
}

func forwardCopy(qm *QuantizedModel, x *tensor.Tensor) []float32 {
	return slices.Clone(qm.Forward(x, false).Data)
}

func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// TestQuantizedBatchInvariance: the forward of a batch is, bit for bit, the
// concatenation of its frames' own forwards, and one worker computes what
// two do — the plane loops split a batch's planes, integer sums are exact.
func TestQuantizedBatchInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for name, qm := range engineCases(t) {
		x := randBatch(rng, 3, 3, 32, 64)
		var whole []float32
		workers(1, func() { whole = forwardCopy(qm, x) })
		for _, w := range []int{2, 3} {
			workers(w, func() {
				if got := forwardCopy(qm, x); !sameBits(got, whole) {
					t.Fatalf("%s: %d workers and one worker disagree", name, w)
				}
			})
		}
		per, outPer := x.Len()/3, len(whole)/3
		for i := 0; i < 3; i++ {
			one := forwardCopy(qm, tensor.FromSlice(x.Data[i*per:(i+1)*per], 1, 3, 32, 64))
			if !sameBits(one, whole[i*outPer:(i+1)*outPer]) {
				t.Fatalf("%s: frame %d alone differs from its row of the batch", name, i)
			}
		}
	}
}

// TestCodeArenaLiveness overwrites every code slot with -128 the moment the
// plan releases it: were a slot handed to a later step while something still
// had to read it, or did a lane read its neighbour's region, the output would
// change. Batches and worker counts shrink and grow — one lane, two, three —
// and the input shape changes, so regions and slots are also cut from an
// arena sized for another forward.
func TestCodeArenaLiveness(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	xs := []*tensor.Tensor{randBatch(rng, 2, 3, 32, 64), randBatch(rng, 5, 3, 32, 64), randBatch(rng, 1, 3, 32, 64), randBatch(rng, 2, 3, 16, 16)}
	for name, qm := range engineCases(t) {
		var want [][]float32
		workers(1, func() {
			for _, x := range xs {
				want = append(want, forwardCopy(qm, x))
			}
		})
		poisonReleased = true
		for _, w := range []int{1, 2, 3, 2} {
			workers(w, func() {
				for i, x := range xs {
					if got := forwardCopy(qm, x); !sameBits(got, want[i]) {
						t.Errorf("%s: input %d on %d workers changes when released slots are poisoned", name, i, w)
					}
				}
			})
		}
		poisonReleased = false
	}
}

// TestArenaBoundedByLanes: the code arena is one sample's per lane, whatever
// the batch. Two workers take a batch of 16 on two regions, and a batch of 1
// after it — one lane — neither shrinks nor regrows the arena. At the
// benchmark's size, SkyNet C at width 1 on 160×320 frames, a lane's region is
// 1 492 800 codes: the float plan's 1 331 200 — no depth-wise or pre-pool
// map, the Concat laid out — and the input's and the output's slots.
func TestArenaBoundedByLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	_, qm, _ := exportSkyNet(t, rng, 0.25, 32, ExportConfig{})
	workers(2, func() {
		qm.Forward(randBatch(rng, 16, 3, 32, 64), false)
		arena := qm.last().arena
		if len(arena) != 2*qm.last().perSample || len(qm.last().lanes) != 2 {
			t.Fatalf("a batch of 16 on two workers left an arena of %d codes on %d lanes, want 2 × %d on 2", len(arena), len(qm.last().lanes), qm.last().perSample)
		}
		qm.Forward(randBatch(rng, 1, 3, 32, 64), false)
		if len(qm.last().arena) != len(arena) || &qm.last().arena[0] != &arena[0] {
			t.Fatalf("a batch of 1 afterwards replaced the arena (%d codes, was %d)", len(qm.last().arena), len(arena))
		}
	})
	if testing.Short() {
		return
	}
	g := backbone.SkyNetC(rng, backbone.DefaultConfig())
	qm, err := Export(g, []*tensor.Tensor{randBatch(rng, 1, 3, 160, 320)}, ExportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	workers(2, func() {
		qm.Forward(randBatch(rng, 2, 3, 160, 320), false)
		if qm.last().perSample != 1_492_800 || len(qm.last().arena) != 2*qm.last().perSample {
			t.Errorf("SkyNet C at 160×320 on two lanes: an arena of %d codes, %d per lane; want 2 × 1 492 800", len(qm.last().arena), qm.last().perSample)
		}
	})
}

// requireOneLane fails unless qm, a model with a float fallback unit — whose
// layers keep state of their own — takes the batch x on one lane however many
// workers there are, and to the concatenation of its frames' own forwards.
func requireOneLane(t *testing.T, qm *QuantizedModel, x *tensor.Tensor) {
	t.Helper()
	if _, fl, _ := qm.Stats(); fl == 0 {
		t.Fatal("the model has no float fallback unit")
	}
	var whole []float32
	workers(3, func() { whole = forwardCopy(qm, x) })
	if len(qm.last().lanes) != 1 {
		t.Fatalf("a batch of %d on three workers ran on %d lanes, want one", x.Dim(0), len(qm.last().lanes))
	}
	n := x.Dim(0)
	per, outPer := x.Len()/n, len(whole)/n
	for i := 0; i < n; i++ {
		one := forwardCopy(qm, tensor.FromSlice(x.Data[i*per:(i+1)*per], append([]int{1}, x.Shape()[1:]...)...))
		if !sameBits(one, whole[i*outPer:(i+1)*outPer]) {
			t.Fatalf("frame %d alone differs from its row of the batch", i)
		}
	}
}

// TestEngineLanesShareNoOperand runs two and three lanes side by side over
// every unit kind, several times over. Under -race a unit or model field
// written during a walk is a report; without it the bits still have to be
// the one-worker forward's. The models with a fallback unit stay on one lane.
func TestEngineLanesShareNoOperand(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for name, qm := range engineCases(t) {
		x := randBatch(rng, 5, 3, 32, 64)
		var want []float32
		workers(1, func() { want = forwardCopy(qm, x) })
		for _, w := range []int{2, 3} {
			workers(w, func() {
				for rep := 0; rep < 3; rep++ {
					if got := forwardCopy(qm, x); !sameBits(got, want) {
						t.Fatalf("%s: %d workers and one worker disagree", name, w)
					}
				}
			})
		}
		_, fl, _ := qm.Stats()
		if lanes := len(qm.last().lanes); (lanes == 1) != (fl > 0) || fl == 0 && lanes != 3 {
			t.Fatalf("%s (%d fallback units) has run on %d lanes at most", name, fl, lanes)
		}
	}
}

// TestInt8BatchInvariance is nn's TestBatchInvariance on the int8 engine:
// over SkyNet A, B and C at three widths on odd-sized frames, the forward of
// a batch of 1..6 at every pair of worker counts 1..4 × 1..4 and under each
// micro-kernel is bit for bit the one-worker forward and the concatenation of
// its frames' own forwards.
func TestInt8BatchInvariance(t *testing.T) {
	widths, batches, counts := []float64{0.125, 0.25, 0.5}, []int{1, 2, 3, 4, 5, 6}, []int{1, 2, 3, 4}
	if testing.Short() {
		widths, batches, counts = []float64{0.25}, []int{1, 3, 4}, []int{1, 2, 3}
	}
	sizes := [][2]int{{9, 19}, {17, 11}, {11, 25}}
	oldNN, oldT := nn.MaxParallelism, tensor.MaxParallelism
	defer func() { nn.MaxParallelism, tensor.MaxParallelism = oldNN, oldT }()
	for vi, v := range []backbone.SkyNetVariant{backbone.VariantA, backbone.VariantB, backbone.VariantC} {
		for wi, width := range widths {
			rng := rand.New(rand.NewSource(int64(40 + vi)))
			g := backbone.SkyNet(rng, backbone.Config{Width: width, InC: 3, HeadChannels: 10, ReLU6: true}, v)
			settle(g, rng)
			h, w := sizes[(vi+wi)%3][0], sizes[(vi+wi)%3][1]
			qm, err := Export(g, []*tensor.Tensor{randBatch(rng, 4, 3, h, w)}, ExportConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				x := randBatch(rng, b, 3, h, w)
				var want []float32
				underBothKernels(t, func(kernel string) {
					what := fmt.Sprintf("SkyNet%s/width%v/%dx%dx%d kernel=%s", v, width, b, h, w, kernel)
					nn.MaxParallelism, tensor.MaxParallelism = 1, 1
					if whole := forwardCopy(qm, x); want == nil {
						want = whole
					} else if !sameBits(whole, want) {
						t.Fatalf("%s: the one-worker forward differs from the first kernel's", what)
					}
					per, outPer := x.Len()/b, len(want)/b
					for i := 0; i < b; i++ {
						one := forwardCopy(qm, tensor.FromSlice(x.Data[i*per:(i+1)*per], 1, 3, h, w))
						if !sameBits(one, want[i*outPer:(i+1)*outPer]) {
							t.Fatalf("%s: frame %d alone differs from its row of the batch", what, i)
						}
					}
					for _, nw := range counts {
						for _, tw := range counts {
							nn.MaxParallelism, tensor.MaxParallelism = nw, tw
							if got := forwardCopy(qm, x); !sameBits(got, want) {
								t.Fatalf("%s: workers %d×%d and one worker disagree", what, nw, tw)
							}
						}
					}
				})
			}
		}
	}
}

// exportPerNode is Export as it was when the engine had a unit per layer kind:
// the plan compiled under unitMask, no Bundle step, no laid-out Concat.
func exportPerNode(t *testing.T, g *nn.Graph, calib []*tensor.Tensor, cfg ExportConfig) *QuantizedModel {
	t.Helper()
	force := make([]bool, len(g.Nodes))
	for _, i := range cfg.ForceFloat {
		force[i] = true
	}
	clips, err := CalibrateActivations(nn.NewPlanCache(g, force), calib)
	if err != nil {
		t.Fatal(err)
	}
	m := &QuantizedModel{separate: unitMask(g, force), output: len(g.Nodes) - 1}
	m.lower(nn.NewPlanCache(g, m.separate), calib[0].Shape(), clips, force)
	return m
}

// last returns the executor m's last forward ran on, or after Export alone
// the one calibration and the lowering used.
func (m *QuantizedModel) last() *qexec {
	e := m.free.Get()
	m.free.Put(e)
	return e
}

// TestInt8BundleStepMatchesUnits is the int8 band step's contract: the engine
// on the inference plan — Bundle steps on codes, the Concat laid out —
// computes bit for bit what the engine with a unit per layer kind computes
// (exportPerNode). Over SkyNet A, B and C at two
// frame sizes — at 18 rows Bundle 2's input has an odd row count under its
// pool — and batches 1 to 5, with forced-float nodes that split two chains or
// keep a pool (Bundle 3's too, which unfolds the bypass) a step of its own; on
// a Bundle that ends the graph and dequantizes into the output row, with and
// without an activation after it; on Bundles one half of which breaks the
// accumulator bound, which are then lowered unit by unit; and on SkyNet C at
// 160×320, where every Bundle but the fourth is cut into several bands. The
// engine runs on the workers of the test (make race varies them) and on one.
func TestInt8BundleStepMatchesUnits(t *testing.T) {
	check := func(name string, g *nn.Graph, calib []*tensor.Tensor, cfg ExportConfig, bands int, xs ...*tensor.Tensor) *QuantizedModel {
		t.Helper()
		qm, err := Export(g, calib, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := exportPerNode(t, g, calib, cfg)
		for _, x := range xs {
			var want []float32
			workers(1, func() { want = forwardCopy(ref, x) })
			if got := forwardCopy(qm, x); !sameBits(got, want) {
				t.Fatalf("%s, input %v: the Bundle steps and the unit-per-node engine disagree", name, x.Shape())
			}
			workers(1, func() {
				if got := forwardCopy(qm, x); !sameBits(got, want) {
					t.Fatalf("%s, input %v, one worker: the Bundle steps and the unit-per-node engine disagree", name, x.Shape())
				}
			})
		}
		n := 0
		for _, s := range qm.last().steps {
			if s.Band != nil {
				n++
			}
		}
		if n != bands {
			t.Fatalf("%s: %d Bundle steps, want %d", name, n, bands)
		}
		return qm
	}
	rng := rand.New(rand.NewSource(33))
	regridded := 0 // laid-out Concats with an input requantized in place
	for _, v := range []backbone.SkyNetVariant{backbone.VariantA, backbone.VariantB, backbone.VariantC} {
		// Under ReLU6 both of the Concat's inputs saturate at 6 and share a
		// grid; under ReLU they do not.
		for _, relu6 := range []bool{true, false} {
			g := backbone.SkyNet(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: relu6}, v)
			settle(g, rng)
			var xs []*tensor.Tensor
			for b := 1; b <= 5; b++ {
				xs = append(xs, randBatch(rng, b, 3, 16, 32), randBatch(rng, b, 3, 18, 32))
			}
			bundles := 6 // model A has no fusion Bundle
			if v == backbone.VariantA {
				bundles = 5
			}
			// Node 2 is Bundle 1's batch norm, 8 Bundle 2's activation; 4 is
			// Bundle 1's pool and 14 Bundle 3's, the bypass source's.
			for _, forced := range [][]int{nil, {2, 8}, {4, 14}} {
				qm := check(fmt.Sprintf("SkyNet%v/ReLU6=%v/forced%v", v, relu6, forced), g, []*tensor.Tensor{randBatch(rng, 4, 3, 16, 32)}, ExportConfig{ForceFloat: forced}, bundles, xs...)
				if v != backbone.VariantA && slices.Min(qm.units[24].(*qconcat).mults) < 1 {
					regridded++
				}
			}
		}
	}
	if regridded == 0 {
		t.Fatal("no laid-out Concat requantized an input in place")
	}
	for _, geo := range [][2]int{{2, 1}, {1, 0}, {2, 0}} {
		for _, act := range []bool{false, true} {
			dw := nn.NewDWConv3(rng, 6, 3, true)
			dw.Stride, dw.Pad = geo[0], geo[1]
			dw.Bias.W.RandNormal(rng, 0, 0.2)
			g := sequential(nn.NewPWConv1(rng, 3, 6, false), dw, nn.NewPWConv1(rng, 6, 4, true))
			if act {
				g.Add(nn.NewReLU6())
			}
			check(fmt.Sprintf("output Bundle/stride%d/pad%d/act%v", geo[0], geo[1], act), g, []*tensor.Tensor{randBatch(rng, 4, 3, 13, 17)}, ExportConfig{}, 1,
				randBatch(rng, 1, 3, 13, 17), randBatch(rng, 3, 3, 13, 17))
		}
	}
	small := func(n int) *tensor.Tensor {
		x := randBatch(rng, n, 4, 6, 6)
		x.Scale(1e-3)
		return x
	}
	// TestExportAccumulatorBound's graph: the depth-wise half of its Bundle
	// breaks the bound.
	pw, bn := nn.NewPWConv1(rng, 4, 4, false), nn.NewBatchNorm(4)
	pw.Weight.W.Scale(1e-3)
	bn.Beta.W.Fill(5)
	dw := nn.NewDWConv3(rng, 4, 3, true)
	dw.Weight.W.Scale(1e-5)
	dw.Bias.W.Fill(-30)
	g := sequential(pw, bn, nn.NewReLU6(), nn.NewPWConv1(rng, 4, 4, false), dw, nn.NewPWConv1(rng, 4, 2, false))
	qm := check("depth-wise half past the bound", g, []*tensor.Tensor{small(4)}, ExportConfig{}, 0, small(1), small(3))
	if i8, fl, fused := qm.Stats(); i8 != 2 || fl != 2 || fused != 0 {
		t.Fatalf("units = (%d int8, %d float, %d fused), want (2, 2, 0)", i8, fl, fused)
	}
	// The 1×1 half breaks it: a batch-norm shift of 5 on products of order 1e-6.
	bn = nn.NewBatchNorm(4)
	bn.Beta.W.Fill(5)
	g = sequential(nn.NewPWConv1(rng, 4, 4, false), nn.NewDWConv3(rng, 4, 3, false), nn.NewPWConv1(rng, 4, 4, false), bn, nn.NewReLU6(), nn.NewMaxPool(2), nn.NewPWConv1(rng, 4, 2, false))
	g.Nodes[0].Layer.(*nn.Conv2D).Weight.W.Scale(1e-3)
	qm = check("1×1 half past the bound", g, []*tensor.Tensor{small(4)}, ExportConfig{}, 0, small(1), small(3))
	if i8, fl, fused := qm.Stats(); i8 != 4 || fl != 1 || fused != 0 {
		t.Fatalf("units = (%d int8, %d float, %d fused), want (4, 1, 0)", i8, fl, fused)
	}
	if testing.Short() {
		return
	}
	g = backbone.SkyNetC(rng, backbone.DefaultConfig())
	settle(g, rng)
	qm = check("SkyNetC/width1/160x320", g, []*tensor.Tensor{randBatch(rng, 1, 3, 160, 320)}, ExportConfig{}, 6,
		randBatch(rng, 1, 3, 160, 320), randBatch(rng, 2, 3, 160, 320))
	cut := 0
	for _, s := range qm.last().steps {
		if b := s.Band; b != nil {
			if b.Rows < qm.last().dims(s.Inputs[0])[2] { // SkyNet's depth-wise output is as high as its input
				cut++
			}
		}
	}
	if cut != 5 {
		t.Errorf("%d Bundle steps are cut into several bands, want every one but Bundle 4, whose 20 rows fit one", cut)
	}
}

// TestExportAllocatesNoFeatureMaps: calibration observes the plan's arena in
// place, and the max-abs calibrator observes the banded inference plan — the
// plan the engine runs too —, whose Bundles keep no depth-wise or pre-pool
// map. Export over two batches of two 160×320 frames therefore allocates, in
// total, calibration's one-sample float arena of that plan and less than
// another one for everything else — the band buffer, the integer weights, the
// plans —; and it leaves no arena behind, the engine running no float plan.
func TestExportAllocatesNoFeatureMaps(t *testing.T) {
	// One worker at both levels, and one Export before the measured one: the
	// GEMM pool's packing scratch is then allocated and nothing else is lazy.
	workers(1, func() {
		rng := rand.New(rand.NewSource(30))
		build := func() *nn.Graph {
			return backbone.SkyNetC(rand.New(rand.NewSource(30)), backbone.Config{Width: 0.5, InC: 3, HeadChannels: 10, ReLU6: true})
		}
		calib := []*tensor.Tensor{randBatch(rng, 2, 3, 160, 320), randBatch(rng, 2, 3, 160, 320)}
		g := build()
		if _, err := Export(g, calib, ExportConfig{}); err != nil {
			t.Fatal(err)
		}
		_, perSample := nn.Compile(g, calib[0].Shape(), nil).Steps()
		arenaBytes := uint64(4 * perSample)

		g = build()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		qm, err := Export(g, calib, ExportConfig{})
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 2*arenaBytes {
			t.Errorf("Export allocated %d bytes; one sample's float arena of the inference plan is %d", got, arenaBytes)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		// What Export leaves behind: the model (integer weights, no code arena
		// yet) — a fraction of one sample's float arena.
		if kept := int64(after.HeapAlloc) - int64(before.HeapAlloc); kept > int64(arenaBytes/2) {
			t.Errorf("Export left %d bytes live; an arena of one sample is %d, and none may stay", kept, arenaBytes)
		}
		runtime.KeepAlive(qm)
		runtime.KeepAlive(g)
		runtime.KeepAlive(calib)
	})
}
