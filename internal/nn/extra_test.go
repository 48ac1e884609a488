package nn

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"skynet/internal/tensor"
)

func TestDWConv5Gradients(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	l := NewDWConv3(rng, 2, 5, false)
	checkLayerGradients(t, l, randInput(rng, 1, 2, 7, 6), true)
}

func TestPWConvEquals1x1Conv(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pw := NewPWConv1(rng, 3, 4, true)
	cv := NewConv2D(rng, 3, 4, 1, 1, 0, true)
	// Copy weights so both layers compute the same function.
	copy(cv.Weight.W.Data, pw.Weight.W.Data)
	copy(cv.Bias.W.Data, pw.Bias.W.Data)
	x := randInput(rng, 2, 3, 5, 5)
	a := pw.Forward([]*tensor.Tensor{x}, false)
	b := cv.Forward([]*tensor.Tensor{x}, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("PW-Conv1 must equal a 1x1 Conv2D")
		}
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	p := NewParam("w", 4)
	p.W.Fill(1)
	opt := NewSGD(0.1, 0, 0.5)
	opt.Step([]*Param{p}) // gradient is zero; decay alone acts
	for _, v := range p.W.Data {
		if math.Abs(float64(v)-0.95) > 1e-6 {
			t.Fatalf("weight after decay = %v, want 0.95", v)
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", 3)
	g := p.Grad()
	g.Data[0], g.Data[1], g.Data[2] = 3, 4, 0 // norm 5
	norm := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(float64(norm)-5) > 1e-5 {
		t.Fatalf("pre-clip norm %v, want 5", norm)
	}
	var sq float64
	for _, g := range p.G.Data {
		sq += float64(g) * float64(g)
	}
	if math.Abs(math.Sqrt(sq)-1) > 1e-5 {
		t.Fatalf("post-clip norm %v, want 1", math.Sqrt(sq))
	}
	// Below the cap: untouched.
	p.G.Data[0], p.G.Data[1], p.G.Data[2] = 0.1, 0, 0
	ClipGradNorm([]*Param{p}, 1)
	if p.G.Data[0] != 0.1 {
		t.Fatal("clip must not rescale small gradients")
	}
}

func TestMomentumAccelerates(t *testing.T) {
	// With a constant gradient, momentum accumulates: the second step moves
	// farther than the first.
	step := func(momentum float32) float32 {
		p := NewParam("w", 1)
		opt := NewSGD(0.1, momentum, 0)
		p.Grad().Data[0] = 1
		opt.Step([]*Param{p})
		after1 := p.W.Data[0]
		p.G.Data[0] = 1
		opt.Step([]*Param{p})
		return (p.W.Data[0] - after1) / after1 // ratio of 2nd to 1st move
	}
	if step(0.9) <= step(0) {
		t.Fatal("momentum must accelerate under constant gradients")
	}
}

func TestGraphOutputOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := NewGraph()
	a := g.Add(NewPWConv1(rng, 2, 3, false))
	g.Add(NewPWConv1(rng, 3, 4, false), a)
	g.Output = a // expose the intermediate node
	out := g.Forward(randInput(rng, 1, 2, 2, 2), false)
	if out.Dim(1) != 3 {
		t.Fatalf("output override ignored: %v", out.Shape())
	}
}

// TestGraphForwardAfterAdd grows a graph between two forwards: the per-node
// bookkeeping must follow the node count, not its first size.
func TestGraphForwardAfterAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := sequential(NewConv2D(rng, 2, 3, 3, 1, 1, false))
	x := randInput(rng, 1, 2, 6, 5)
	g.Forward(x, false)
	g.Add(NewReLU6())
	out := g.Forward(x, false)
	if want := []int{1, 3, 6, 5}; !slices.Equal(out.Shape(), want) {
		t.Fatalf("output shape %v, want %v", out.Shape(), want)
	}
	if len(g.OutShapes) != 2 || !slices.Equal(g.OutShapes[1], out.Shape()) {
		t.Fatalf("OutShapes = %v, want one entry per node ending in %v", g.OutShapes, out.Shape())
	}
	for _, v := range out.Data {
		if v < 0 || v > 6 {
			t.Fatalf("output %v escaped the added ReLU6", v)
		}
	}
}

func TestGraphForwardEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty graph Forward must panic")
		}
	}()
	NewGraph().Forward(randInput(rand.New(rand.NewSource(0)), 1, 1, 1, 1), false)
}

func TestBackwardAccumulatesAcrossCalls(t *testing.T) {
	// The documented contract: Backward adds into Param.G until ZeroGrad.
	rng := rand.New(rand.NewSource(33))
	l := NewPWConv1(rng, 2, 2, false)
	x := randInput(rng, 1, 2, 2, 2)
	dout := tensor.New(1, 2, 2, 2)
	dout.Fill(1)
	xs := []*tensor.Tensor{x}
	l.Forward(xs, true)
	l.Backward(xs, dout.Clone())
	once := append([]float32(nil), l.Weight.G.Data...)
	l.Forward(xs, true)
	l.Backward(xs, dout.Clone())
	for i, v := range l.Weight.G.Data {
		if math.Abs(float64(v-2*once[i])) > 1e-5 {
			t.Fatal("gradients must accumulate across Backward calls")
		}
	}
}

func TestReLU6CapBlocksGradient(t *testing.T) {
	r := NewReLU6()
	x := tensor.FromSlice([]float32{-1, 3, 7}, 1, 3, 1, 1)
	xs := []*tensor.Tensor{x}
	r.Forward(xs, true)
	d := tensor.FromSlice([]float32{1, 1, 1}, 1, 3, 1, 1)
	dx := r.Backward(xs, d)[0]
	want := []float32{0, 1, 0} // below zero and above the cap block gradient
	for i, w := range want {
		if dx.Data[i] != w {
			t.Fatalf("ReLU6 gradient %v, want %v", dx.Data, want)
		}
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	d := NewDropout(1, 0.5)
	x := randInput(rng, 2, 4, 3, 3)
	xs := []*tensor.Tensor{x}
	out := d.Forward(xs, false)
	for i := range x.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatal("eval-mode dropout must be the identity")
		}
	}
	g := tensor.New(x.Shape()...)
	g.Fill(1)
	dx := d.Backward(xs, g)[0]
	for _, v := range dx.Data {
		if v != 1 {
			t.Fatal("eval-mode dropout backward must pass gradients through")
		}
	}
}

func TestDropoutTrainStatistics(t *testing.T) {
	d := NewDropout(2, 0.5)
	x := tensor.New(1, 1, 100, 100)
	x.Fill(1)
	out := d.Forward([]*tensor.Tensor{x}, true)
	var zeros int
	var sum float64
	for _, v := range out.Data {
		if v == 0 {
			zeros++
		}
		sum += float64(v)
	}
	frac := float64(zeros) / float64(out.Len())
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("dropped fraction %v, want ≈ 0.5", frac)
	}
	// Inverted dropout preserves the expected activation sum.
	if mean := sum / float64(out.Len()); mean < 0.9 || mean > 1.1 {
		t.Fatalf("post-dropout mean %v, want ≈ 1", mean)
	}
}

func TestDropoutBackwardMatchesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	d := NewDropout(3, 0.3)
	x := randInput(rng, 1, 2, 4, 4)
	xs := []*tensor.Tensor{x}
	out := d.Forward(xs, true)
	g := tensor.New(x.Shape()...)
	g.Fill(1)
	dx := d.Backward(xs, g)[0]
	for i := range out.Data {
		if (out.Data[i] == 0) != (dx.Data[i] == 0) && x.Data[i] != 0 {
			t.Fatal("gradient mask must match the forward mask")
		}
	}
}

func TestLoadRejectsTruncatedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	g := sequential(NewPWConv1(rng, 3, 4, true))
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	half := buf.Bytes()[:buf.Len()/2]
	g2 := sequential(NewPWConv1(rng, 3, 4, true))
	if err := g2.Load(bytes.NewReader(half)); err == nil {
		t.Fatal("truncated snapshot must error")
	}
}

func TestParallelForwardMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	l := NewConv2D(rng, 3, 6, 3, 1, 1, true)
	x := randInput(rng, 5, 3, 9, 7)
	var serial, parallel *tensor.Tensor
	withParallelism(1, 1, func() { serial = l.Forward([]*tensor.Tensor{x}, false) })
	withParallelism(4, 4, func() { parallel = l.Forward([]*tensor.Tensor{x}, false) })
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatal("parallel conv forward differs from serial")
		}
	}
}

func TestSummaryRendersLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	g := sequential(
		NewConv2D(rng, 3, 8, 3, 1, 1, false),
		NewBatchNorm(8),
		NewReLU6(),
	)
	s := Summary(Costs(g, []int{1, 3, 8, 8}))
	for _, want := range []string{"conv", "batchnorm", "relu6", "[1 8 8 8]", "total: 232 parameters", "13824 MACs"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}
