package bundle

import (
	"math/rand"
	"reflect"
	"testing"

	"skynet/internal/dataset"
	"skynet/internal/fpga"
	"skynet/internal/hw"
	"skynet/internal/tensor"
)

func TestEnumerateProducesDistinctBundles(t *testing.T) {
	bundles := Enumerate()
	if len(bundles) != 12 {
		t.Fatalf("got %d bundles, want 12 (6 conv patterns × 2 activations)", len(bundles))
	}
	names := map[string]bool{}
	for _, b := range bundles {
		if names[b.Name()] {
			t.Fatalf("duplicate bundle %s", b.Name())
		}
		names[b.Name()] = true
	}
	// The SkyNet winner must be among the candidates.
	if !names["DW3+PW+BN+ReLU6"] {
		t.Fatal("the DW3+PW+BN+ReLU6 bundle (SkyNet's choice) is missing")
	}
}

func TestBundleBuildChannelContract(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, b := range Enumerate() {
		layers := b.Build(rng, 8, 16)
		if len(layers) == 0 {
			t.Fatalf("bundle %s built no layers", b.Name())
		}
		// Run the layers as a chain and verify the output channel count.
		x := tensor.New(1, 8, 8, 8)
		x.RandUniform(rng, 0, 1)
		cur := x
		for _, l := range layers {
			cur = l.Forward([]*tensor.Tensor{cur}, false)
		}
		if cur.Dim(1) != 16 {
			t.Fatalf("bundle %s output channels %d, want 16", b.Name(), cur.Dim(1))
		}
	}
}

func TestSketchForwardAndTrainable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := Enumerate()[6] // a DW bundle
	g := b.Sketch(rng)
	x := tensor.New(2, 3, 24, 48)
	x.RandUniform(rng, 0, 1)
	out := g.Forward(x, true)
	// stem pool + 2 bundle pools = stride 8.
	if out.Dim(1) != 10 || out.Dim(2) != 3 || out.Dim(3) != 6 {
		t.Fatalf("sketch output shape %v", out.Shape())
	}
	dout := tensor.New(out.Shape()...)
	dout.Fill(0.01)
	g.Backward(dout)
}

// TestStage1PricesOnTheConfiguredTarget: Stage 1 reports, for every Bundle,
// exactly what Target.Price gives for its sketch on the target it is
// handed, so a flow configured for another device selects its Pareto
// Bundles on that device's numbers, not on Ultra96's.
func TestStage1PricesOnTheConfiguredTarget(t *testing.T) {
	pynq := Target{Device: fpga.PynqZ1, GPU: hw.GTX1080Ti, WBits: 8, FMBits: 8}
	bundles := Enumerate()[4:8]
	none := func(Bundle) float64 { return 0 }
	got := EvaluateAll(bundles, none, 24, 48, pynq)
	onUltra := EvaluateAll(bundles, none, 24, 48, Contest)
	for i, b := range bundles {
		rng := rand.New(rand.NewSource(0))
		g := b.Sketch(rng)
		p := pynq.Price(g, []int{1, 3, 24, 48})
		want := Evaluation{Bundle: b, FPGALatMS: p.Report.LatencyS * 1e3, GPULatMS: p.GPUms,
			DSP: p.Report.DSPUsed, BRAM: p.Report.BRAMUsed, ParamBytes: g.ParamBytes()}
		e := got[i]
		if e.Bundle.ID != b.ID || e.FPGALatMS != want.FPGALatMS || e.GPULatMS != want.GPULatMS ||
			e.DSP != want.DSP || e.BRAM != want.BRAM || e.ParamBytes != want.ParamBytes {
			t.Fatalf("%s: Stage 1 reports %+v, the pricing function %+v", b.Name(), e, want)
		}
		u := onUltra[i]
		if e.FPGALatMS == u.FPGALatMS || e.GPULatMS == u.GPULatMS || e.DSP == u.DSP {
			t.Fatalf("%s: Pynq-Z1/GTX 1080 Ti W8/FM8 priced like Ultra96/TX2 W11/FM9: %+v vs %+v", b.Name(), e, u)
		}
	}
}

// TestPriceHasNoHistory: a price is the architecture's and the input
// shape's. It reads the same, to the bit, on a fresh sketch, after a batch-4
// inference forward and after a training forward at another size.
func TestPriceHasNoHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := Enumerate()[6].Sketch(rng)
	in := []int{1, 3, 24, 48}
	want := Contest.Price(g, in)
	for _, x := range []struct {
		shape []int
		train bool
	}{{[]int{4, 3, 24, 48}, false}, {[]int{2, 3, 16, 32}, true}} {
		xt := tensor.New(x.shape...)
		xt.RandUniform(rng, 0, 1)
		g.Forward(xt, x.train)
		if p := Contest.Price(g, in); !reflect.DeepEqual(p, want) {
			t.Fatalf("after a forward of %v (train %v): price %+v, fresh %+v", x.shape, x.train, p, want)
		}
	}
}

func TestHardwareEvalProducesSaneNumbers(t *testing.T) {
	bundles := Enumerate()
	dw := bundles[6] // DW3+PW+BN+ReLU
	cv := bundles[0] // Conv3+BN+ReLU
	check := func(b Bundle) (float64, int64) {
		e := HardwareEval(b, 24, 48, Contest)
		if e.FPGALatMS <= 0 || e.GPULatMS <= 0 || e.DSP <= 0 || e.BRAM <= 0 || e.ParamBytes <= 0 {
			t.Fatalf("bundle %s: non-positive hardware numbers", b.Name())
		}
		return e.FPGALatMS, e.ParamBytes
	}
	dwLat, dwParams := check(dw)
	cvLat, cvParams := check(cv)
	// The depth-wise bundle must be cheaper in parameters; its FPGA latency
	// should not be dramatically worse despite the diagonal mapping.
	if dwParams >= cvParams {
		t.Fatalf("DW bundle params %d should be below Conv3 %d", dwParams, cvParams)
	}
	if dwLat > cvLat*3 {
		t.Fatalf("DW bundle latency %.2f implausibly above Conv3 %.2f", dwLat, cvLat)
	}
}

func TestEvaluateAllAndParetoSelect(t *testing.T) {
	bundles := Enumerate()[:6]
	// Cheap surrogate accuracy keyed to the bundle ID.
	surrogate := func(b Bundle) float64 {
		return []float64{0.3, 0.5, 0.2, 0.45, 0.55, 0.1}[b.ID%6]
	}
	evals := EvaluateAll(bundles, surrogate, 24, 48, Contest)
	if len(evals) != 6 {
		t.Fatalf("got %d evaluations", len(evals))
	}
	frontier := ParetoSelect(evals)
	if len(frontier) == 0 || len(frontier) > len(evals) {
		t.Fatalf("frontier size %d", len(frontier))
	}
	// Frontier must be strictly improving in accuracy as latency grows.
	for i := 1; i < len(frontier); i++ {
		if frontier[i].Acc <= frontier[i-1].Acc {
			t.Fatal("frontier accuracy must increase with latency")
		}
		if frontier[i].FPGALatMS < frontier[i-1].FPGALatMS {
			t.Fatal("frontier must be sorted by latency")
		}
	}
	// No frontier point may be dominated by any evaluation.
	for _, f := range frontier {
		for _, e := range evals {
			if e.Acc > f.Acc && e.FPGALatMS < f.FPGALatMS {
				t.Fatalf("frontier point %s dominated by %s", f.Bundle.Name(), e.Bundle.Name())
			}
		}
	}
}

// TestTrainingAccuracyRuns exercises the real Stage-1 fast-training path on
// a tiny budget.
func TestTrainingAccuracyRuns(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H = 48, 24
	gen := dataset.NewGenerator(cfg)
	acc := TrainingAccuracy(gen, 16, 8, 2, 1)
	b := Enumerate()[6]
	v := acc(b)
	if v < 0 || v > 1 {
		t.Fatalf("accuracy %v out of [0,1]", v)
	}
}

func TestChain(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b, _ := ByID(6)
	g, bypass := Chain{Bundle: b, Channels: []int{8, 16, 24}, PoolAfter: []int{0, 1}, InC: 3, HeadC: 10}.Build(rng)
	if bypass {
		t.Fatal("bypass must be off when not requested")
	}
	x := tensor.New(1, 3, 16, 16)
	x.RandUniform(rng, 0, 1)
	out := g.Forward(x, false)
	if out.Dim(1) != 10 || out.Dim(2) != 4 {
		t.Fatalf("chain output %v", out.Shape())
	}
}

func TestChainBypass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b, _ := ByID(6)
	g, bypass := Chain{Bundle: b, Channels: []int{8, 16, 24, 32}, PoolAfter: []int{0, 1}, InC: 3, HeadC: 10, Bypass: true}.Build(rng)
	if !bypass {
		t.Fatal("bypass should apply: the last pool is followed by slots")
	}
	x := tensor.New(1, 3, 16, 16)
	x.RandUniform(rng, 0, 1)
	out := g.Forward(x, false)
	if out.Dim(1) != 10 || out.Dim(2) != 4 {
		t.Fatalf("bypass output %v", out.Shape())
	}
	// Train-mode backward must work through the bypass.
	out = g.Forward(x, true)
	dout := tensor.New(out.Shape()...)
	dout.Fill(0.01)
	g.Backward(dout)
}

func TestChainBypassInapplicable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b, _ := ByID(0)
	// The only pool is after the last slot: no room for a fusion bundle.
	g, bypass := Chain{Bundle: b, Channels: []int{8, 16}, PoolAfter: []int{1}, InC: 3, HeadC: 10, Bypass: true}.Build(rng)
	if bypass {
		t.Fatal("bypass must be skipped when the last pool has no successor slot")
	}
	x := tensor.New(1, 3, 8, 8)
	x.RandUniform(rng, 0, 1)
	if out := g.Forward(x, false); out.Dim(1) != 10 {
		t.Fatalf("fallback chain output %v", out.Shape())
	}
}

func TestComponentString(t *testing.T) {
	if Conv3.String() != "Conv3" || ReLU6.String() != "ReLU6" {
		t.Fatal("component names wrong")
	}
}
