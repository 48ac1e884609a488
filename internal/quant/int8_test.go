package quant

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

func randBatch(rng *rand.Rand, n, c, h, w int) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	return x
}

// exportSkyNet builds a width-scaled SkyNet C and lowers it on a random
// calibration set.
func exportSkyNet(t *testing.T, rng *rand.Rand, width float64, hw int, cfg ExportConfig) (*nn.Graph, *QuantizedModel, []*tensor.Tensor) {
	t.Helper()
	g := backbone.SkyNetC(rng, backbone.Config{Width: width, InC: 3, HeadChannels: 10, ReLU6: true})
	calib := []*tensor.Tensor{randBatch(rng, 2, 3, hw, hw), randBatch(rng, 2, 3, hw, hw)}
	qm, err := Export(g, calib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, qm, calib
}

// TestExportFusesSkyNet pins the lowering outcome on SkyNet C: every node
// lowers to int8 (no float fallback), and the engine runs the float engine's
// plan — seven steps where a unit per layer kind took 18. Each of the six
// Bundles is one step: depth-wise, 1×1 → BN → ReLU6 and, for three, the pool,
// Bundle 3's with the bypass's reorder beside it. The Concat is laid out, not
// a step: it lies over Bundle 5's map and the reordered one, side by side, and
// once Bundle 5's step has run its unit requantizes the narrower of the two
// (if either is) where it lies.
func TestExportFusesSkyNet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	_, qm, calib := exportSkyNet(t, rng, 0.25, 16, ExportConfig{})
	if i8, fl, fused := qm.Stats(); i8 != 8 || fl != 0 || fused != 22 {
		t.Errorf("units = (%d int8, %d float, %d fused), want (8, 0, 22): a step per Bundle, the head and the laid-out Concat; the 1×1 conv, BN and act of six Bundles, three pools and the reorder fused", i8, fl, fused)
	}
	qm.Forward(calib[0], false)
	want := [][2]int{{0, 4}, {5, 9}, {10, 14}, {15, 18}, {19, 22}, {24, 24}, {25, 28}, {29, 29}}
	var got [][2]int
	for i, s := range qm.last().steps {
		got = append(got, [2]int{s.Node, s.Out})
		if _, bundle := qm.units[s.Out].(*qbundle); bundle != (i < 7 && i != 5) || (s.Band != nil) != bundle {
			t.Errorf("step %d (node %d) has Band %v and unit %T", i, s.Node, s.Band, qm.units[s.Out])
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("steps and laid-out Concats (node, out):\n got %v\nwant %v", got, want)
	}
	if r := qm.last().steps[2].Band.Reorg; r != 23 {
		t.Errorf("Bundle 3 writes reorder %d beside its pool, want 23", r)
	}
	for i, s := range qm.last().steps {
		if s.Laid != (i == 5) {
			t.Errorf("step %d (node %d) is laid out: %v", i, s.Node, s.Laid)
		}
	}
	if laid := qm.last().steps[5]; !slices.Equal(laid.Inputs, []int{22, 23}) {
		t.Fatalf("the step after Bundle 5's is %+v, want the Concat (24) of its map and the reorder laid out", laid)
	}
	cat, b5, reorg := qm.last().plan.Slot(24), qm.last().plan.Slot(22), qm.last().plan.Slot(23)
	if cat.Off != b5.Off || reorg.Off != b5.Off+b5.Size || cat.Size != b5.Size+reorg.Size {
		t.Errorf("the Concat's slot [%d, +%d) is not Bundle 5's [%d, +%d) and the reorder's [%d, +%d) side by side", cat.Off, cat.Size, b5.Off, b5.Size, reorg.Off, reorg.Size)
	}
	if _, ok := qm.units[24].(*qconcat); !ok {
		t.Errorf("the Concat's unit is %T, want a qconcat, which requantizes a narrower input in place", qm.units[24])
	}
}

// TestQuantizedForwardCloseToFloat bounds the int8 engine's end-to-end
// numerical drift against the float graph on random (untrained) weights:
// the normalized RMSE over the head tensor must stay small, or some scale
// in the lowering is wired wrong.
func TestQuantizedForwardCloseToFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, qm, _ := exportSkyNet(t, rng, 0.5, 16, ExportConfig{})
	x := randBatch(rng, 2, 3, 16, 16)
	want := g.Forward(x, false)
	got := qm.Forward(x, false)
	if got.Len() != want.Len() {
		t.Fatalf("output length %d, want %d", got.Len(), want.Len())
	}
	var se, ref float64
	for i := range want.Data {
		d := float64(got.Data[i] - want.Data[i])
		se += d * d
		ref += float64(want.Data[i]) * float64(want.Data[i])
	}
	nrmse := math.Sqrt(se / (ref + 1e-12))
	if nrmse > 0.15 {
		t.Fatalf("normalized RMSE int8 vs float = %.4f, want <= 0.15", nrmse)
	}
	if nrmse != nrmse {
		t.Fatal("quantized output contains NaN")
	}
}

// TestQuantizedForwardDeterministic is the GOMAXPROCS 1-vs-8 bitwise
// determinism contract for the quantized forward: integer accumulation is
// exact and requantization elementwise, so the bytes must not depend on
// the worker count. The 64×64 input makes the early GEMMs large enough to
// actually cross the parallelism threshold.
func TestQuantizedForwardDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("large forward skipped in short mode")
	}
	rng := rand.New(rand.NewSource(4))
	_, qm, _ := exportSkyNet(t, rng, 0.5, 64, ExportConfig{})
	x := randBatch(rng, 2, 3, 64, 64)

	oldPar := tensor.MaxParallelism
	oldProcs := runtime.GOMAXPROCS(0)
	defer func() {
		tensor.MaxParallelism = oldPar
		runtime.GOMAXPROCS(oldProcs)
	}()

	runtime.GOMAXPROCS(1)
	tensor.MaxParallelism = 1
	ref := append([]float32(nil), qm.Forward(x, false).Data...)

	runtime.GOMAXPROCS(8)
	tensor.MaxParallelism = 8
	for run := 0; run < 3; run++ {
		out := qm.Forward(x, false).Data
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("run %d: output[%d] = %x differs from GOMAXPROCS=1 result %x",
					run, i, math.Float32bits(out[i]), math.Float32bits(ref[i]))
			}
		}
	}
}

// TestExportForceFloat checks the per-layer float fallback: forcing nodes
// out of the int8 path must keep the model runnable and accurate.
func TestExportForceFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	calib := []*tensor.Tensor{randBatch(rng, 2, 3, 16, 16)}
	// Force the first two nodes (DW conv + PW conv) float; the PW conv's
	// BN/act can then not fuse and must also survive as standalone units.
	qm, err := Export(g, calib, ExportConfig{ForceFloat: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	_, floatUnits, _ := qm.Stats()
	if floatUnits < 2 {
		t.Fatalf("floatUnits = %d, want >= 2 (forced nodes)", floatUnits)
	}
	x := randBatch(rng, 1, 3, 16, 16)
	want := g.Forward(x, false)
	got := qm.Forward(x, false)
	var maxAbs, maxDiff float64
	for i := range want.Data {
		if a := math.Abs(float64(want.Data[i])); a > maxAbs {
			maxAbs = a
		}
		if d := math.Abs(float64(got.Data[i] - want.Data[i])); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.25*maxAbs+1e-3 {
		t.Fatalf("forced-float model drifted: max diff %v vs max magnitude %v", maxDiff, maxAbs)
	}
	requireOneLane(t, qm, randBatch(rng, 3, 3, 16, 16))

	if _, err := Export(g, calib, ExportConfig{ForceFloat: []int{len(g.Nodes)}}); err == nil {
		t.Fatal("out-of-range ForceFloat index must error")
	}
}

// TestExportFallbackLayer checks that a layer type the lowering does not
// recognize runs as float fallback inside an otherwise-int8 graph: at the
// graph output, whose codes get a slot past the plan's, and between two int8
// units, where the int8 consumer's codes go to the fallback step's own slot.
func TestExportFallbackLayer(t *testing.T) {
	for name, c := range map[string]struct {
		build     func(rng *rand.Rand, g *nn.Graph)
		int8Units int
	}{
		"at the output": {func(rng *rand.Rand, g *nn.Graph) {
			g.Add(nn.NewPWConv1(rng, 3, 8, false), nn.GraphInput)
			g.Add(nn.NewDropout(1, 0.5)) // not lowered to int8: float fallback (the identity at inference)
		}, 1},
		"between int8 units": {func(rng *rand.Rand, g *nn.Graph) {
			g.Add(nn.NewPWConv1(rng, 3, 8, false), nn.GraphInput)
			g.Add(nn.NewDropout(1, 0.5)) // not lowered to int8: float fallback (the identity at inference)
			g.Add(nn.NewPWConv1(rng, 8, 4, true))
		}, 2},
	} {
		rng := rand.New(rand.NewSource(6))
		g := nn.NewGraph()
		c.build(rng, g)
		calib := []*tensor.Tensor{randBatch(rng, 2, 3, 8, 8)}
		qm, err := Export(g, calib, ExportConfig{})
		if err != nil {
			t.Fatal(err)
		}
		int8Units, floatUnits, _ := qm.Stats()
		if int8Units != c.int8Units || floatUnits != 1 {
			t.Fatalf("%s: units = (%d int8, %d float), want (%d, 1)", name, int8Units, floatUnits, c.int8Units)
		}
		x := randBatch(rng, 2, 3, 8, 8)
		want := g.Forward(x, false)
		got := qm.Forward(x, false)
		for i := range want.Data {
			if d := math.Abs(float64(got.Data[i] - want.Data[i])); d > 0.1*math.Abs(float64(want.Data[i]))+0.05 {
				t.Fatalf("%s: fallback output[%d] = %v, float %v", name, i, got.Data[i], want.Data[i])
			}
		}
		requireOneLane(t, qm, randBatch(rng, 3, 3, 8, 8))
	}
}

// TestExportEmpty checks error paths.
func TestExportEmpty(t *testing.T) {
	if _, err := Export(nn.NewGraph(), nil, ExportConfig{}); err == nil {
		t.Fatal("empty graph must error")
	}
	rng := rand.New(rand.NewSource(7))
	g := sequential(nn.NewPWConv1(rng, 3, 4, false))
	if _, err := Export(g, nil, ExportConfig{}); err == nil {
		t.Fatal("empty calibration set must error")
	}
}

// TestQuantizedSteadyStateAllocs pins the allocation contract of the engine
// after the first forward sized all internal buffers: a forward allocates its
// output and nothing else, the same as nn.Graph.Forward — a single frame on
// one worker, and a batch of 4 on the two lanes of two workers.
func TestQuantizedSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	_, qm, _ := exportSkyNet(t, rng, 0.25, 16, ExportConfig{})
	for _, c := range []struct{ batch, workers int }{{1, 1}, {4, 2}, {1, 2}} {
		x := randBatch(rng, c.batch, 3, 16, 16)
		workers(c.workers, func() {
			shape := qm.Forward(x, false).Shape() // size all buffers
			qm.Forward(x, false)
			var out *tensor.Tensor
			want := testing.AllocsPerRun(10, func() { out = tensor.New(shape...) })
			runtime.KeepAlive(out)
			if allocs := testing.AllocsPerRun(10, func() { qm.Forward(x, false) }); allocs != want {
				t.Errorf("quantized forward steady state, batch %d on %d workers: %v allocs/op, want the output tensor's %v", c.batch, c.workers, allocs, want)
			}
		})
	}
}

// TestQuantizedForwardHandsItsOutputOver: the tensor Forward returns is the
// caller's. The next forward writes a buffer of its own, so the first result
// keeps its values bit for bit.
func TestQuantizedForwardHandsItsOutputOver(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	_, qm, _ := exportSkyNet(t, rng, 0.25, 16, ExportConfig{})
	a, b := randBatch(rng, 2, 3, 16, 16), randBatch(rng, 2, 3, 16, 16)
	first := qm.Forward(a, false)
	kept := first.Clone()
	second := qm.Forward(b, false)
	if &first.Data[0] == &second.Data[0] {
		t.Fatal("two forwards returned one buffer")
	}
	if !sameBits(first.Data, kept.Data) {
		t.Fatal("a second forward changed the first forward's output")
	}
}
