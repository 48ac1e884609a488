package nn

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"skynet/internal/tensor"
)

func TestReLU6Range(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randInput(rng, 2, 3, 8, 8)
	x.Scale(10)
	out := NewReLU6().Forward([]*tensor.Tensor{x}, false)
	if slices.Min(out.Data) < 0 || slices.Max(out.Data) > 6 {
		t.Fatalf("ReLU6 output out of [0,6]: [%v, %v]", slices.Min(out.Data), slices.Max(out.Data))
	}
	// Property from §5.2: ReLU6's range is strictly smaller than ReLU's.
	outR := NewReLU().Forward([]*tensor.Tensor{x}, false)
	if slices.Max(outR.Data) <= 6 {
		t.Skip("input did not exceed the cap")
	}
	if slices.Max(out.Data) >= slices.Max(outR.Data) {
		t.Fatal("ReLU6 must clip the range below ReLU's")
	}
}

func TestBatchNormNormalizesTrainingBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bn := NewBatchNorm(4)
	x := randInput(rng, 8, 4, 5, 5)
	x.Scale(3)
	for i := range x.Data {
		x.Data[i] += 7
	}
	out := bn.Forward([]*tensor.Tensor{x}, true)
	// With gamma=1, beta=0 each channel of the output must have ~zero mean
	// and ~unit variance over (N,H,W).
	n, c, hw := 8, 4, 25
	for ch := 0; ch < c; ch++ {
		var mean, sq float64
		for i := 0; i < n; i++ {
			base := (i*c + ch) * hw
			for j := 0; j < hw; j++ {
				v := float64(out.Data[base+j])
				mean += v
				sq += v * v
			}
		}
		cnt := float64(n * hw)
		mean /= cnt
		variance := sq/cnt - mean*mean
		if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-3 {
			t.Fatalf("channel %d: mean %v variance %v", ch, mean, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bn := NewBatchNorm(2)
	// Train on many batches so running stats converge.
	for i := 0; i < 50; i++ {
		x := randInput(rng, 4, 2, 4, 4)
		x.Scale(2)
		bn.Forward([]*tensor.Tensor{x}, true)
	}
	// A constant eval input must not be normalized to zero mean by its own
	// statistics; it must use the running ones.
	x := tensor.New(1, 2, 4, 4)
	x.Fill(5)
	out := bn.Forward([]*tensor.Tensor{x}, false)
	var sum float64
	for _, v := range out.Data {
		sum += float64(v)
	}
	if mean := sum / float64(out.Len()); math.Abs(mean) < 0.5 {
		t.Fatalf("eval-mode BN appears to use batch stats: mean %v", mean)
	}
}

func TestMaxPoolValues(t *testing.T) {
	x := tensor.FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 2,
		1, 10, 3, 4,
	}, 1, 1, 4, 4)
	out := NewMaxPool(2).Forward([]*tensor.Tensor{x}, false)
	want := []float32{4, 8, 10, 4}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("maxpool got %v, want %v", out.Data, want)
		}
	}
}

func TestMaxPoolCropsOddEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randInput(rng, 1, 1, 5, 7)
	out := NewMaxPool(2).Forward([]*tensor.Tensor{x}, false)
	if out.Dim(2) != 2 || out.Dim(3) != 3 {
		t.Fatalf("maxpool output shape %v, want [1 1 2 3]", out.Shape())
	}
}

// TestReorgIsBijection verifies the Figure 5 claim: reordering loses no
// information, unlike pooling.
func TestReorgIsBijection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, h, w := 1+rng.Intn(3), 2*(1+rng.Intn(3)), 2*(1+rng.Intn(3))
		x := randInput(rng, 1, c, h, w)
		r := NewReorg(2)
		xs := []*tensor.Tensor{x}
		y := r.Forward(xs, false)
		if y.Dim(1) != 4*c || y.Dim(2) != h/2 || y.Dim(3) != w/2 {
			return false
		}
		// Backward of a bijection applied to the forward output recovers
		// the input exactly.
		back := r.Backward(xs, y)[0]
		for i := range x.Data {
			if back.Data[i] != x.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReorgMatchesTable3Channels(t *testing.T) {
	// The SkyNet bypass reorders the 192-channel Bundle-3 output into 768
	// channels (Table 3: "FM Reordering (768)").
	rng := rand.New(rand.NewSource(5))
	x := randInput(rng, 1, 192, 4, 4)
	y := NewReorg(2).Forward([]*tensor.Tensor{x}, false)
	if y.Dim(1) != 768 {
		t.Fatalf("reorg of 192 channels gives %d, want 768", y.Dim(1))
	}
}

func TestConcatOrderAndValues(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	b := tensor.FromSlice([]float32{5, 6, 7, 8}, 1, 1, 2, 2)
	out := NewConcat().Forward([]*tensor.Tensor{a, b}, false)
	want := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("concat got %v, want %v", out.Data, want)
		}
	}
}

func TestGraphBypassTopology(t *testing.T) {
	// input -> conv a -> conv b -> concat(a-out, b-out) -> conv c
	rng := rand.New(rand.NewSource(6))
	g := NewGraph()
	na := g.Add(NewPWConv1(rng, 2, 3, false))
	nb := g.Add(NewPWConv1(rng, 3, 4, false), na)
	nc := g.Add(NewConcat(), na, nb)
	g.Add(NewPWConv1(rng, 7, 2, false), nc)
	x := randInput(rng, 1, 2, 3, 3)
	out := g.Forward(x, true)
	if out.Dim(1) != 2 {
		t.Fatalf("graph output channels %d, want 2", out.Dim(1))
	}
	dout := tensor.New(out.Shape()...)
	dout.Fill(1)
	din := g.Backward(dout)
	if !din.SameShape(x) {
		t.Fatalf("input gradient shape %v, want %v", din.Shape(), x.Shape())
	}
	var nonzero bool
	for _, v := range din.Data {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("input gradient is all zeros")
	}
}

// TestGraphBypassGradientCheck validates end-to-end gradients through a
// bypass graph (shared producer feeding two consumers).
func TestGraphBypassGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewGraph()
	na := g.Add(NewPWConv1(rng, 2, 2, false))
	nb := g.Add(NewDWConv3(rng, 2, 3, false), na)
	nc := g.Add(NewConcat(), na, nb)
	g.Add(NewPWConv1(rng, 4, 1, false), nc)
	x := randInput(rng, 1, 2, 4, 4)
	out := g.Forward(x, true)
	r := tensor.New(out.Shape()...)
	r.RandNormal(rng, 0, 1)
	for _, p := range g.Params() {
		p.ZeroGrad()
	}
	din := g.Backward(r.Clone())
	const eps, tol = 1e-2, 2e-2
	for _, i := range pickIndices(rng, x.Len(), 10) {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		fp := scalarize(g.Forward(x, true), r)
		x.Data[i] = orig - eps
		fm := scalarize(g.Forward(x, true), r)
		x.Data[i] = orig
		num := (fp - fm) / (2 * eps)
		if math.Abs(num-float64(din.Data[i])) > tol*(1+math.Abs(num)) {
			t.Fatalf("graph input grad mismatch at %d: analytic %v numeric %v", i, din.Data[i], num)
		}
	}
}

func TestGraphNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := sequential(
		NewConv2D(rng, 3, 8, 3, 1, 1, true), // 3*8*9 + 8 = 224
		NewBatchNorm(8),                     // 16
		NewReLU6(),
	)
	if got := g.NumParams(); got != 240 {
		t.Fatalf("NumParams = %d, want 240", got)
	}
	if got := g.ParamBytes(); got != 960 {
		t.Fatalf("ParamBytes = %d, want 960", got)
	}
}

func TestSGDReducesLoss(t *testing.T) {
	// Train a 1-layer linear model on a known linear target; the loss must
	// decrease monotonically-ish and substantially.
	rng := rand.New(rand.NewSource(9))
	l := NewLinear(rng, 4, 1)
	opt := NewSGD(0.05, 0.9, 0)
	target := []float32{1, -2, 3, 0.5}
	lossAt := func() float32 {
		var total float32
		for trial := 0; trial < 8; trial++ {
			x := randInput(rng, 4, 4)
			out := l.Forward([]*tensor.Tensor{x}, true)
			for i := 0; i < 4; i++ {
				var want float32
				for j, w := range target {
					want += w * x.At(i, j)
				}
				d := out.At(i, 0) - want
				total += d * d
			}
		}
		return total
	}
	first := lossAt()
	for step := 0; step < 200; step++ {
		x := randInput(rng, 8, 4)
		xs := []*tensor.Tensor{x}
		out := l.Forward(xs, true)
		grad := tensor.New(8, 1)
		for i := 0; i < 8; i++ {
			var want float32
			for j, w := range target {
				want += w * x.At(i, j)
			}
			grad.Set(2*(out.At(i, 0)-want)/8, i, 0)
		}
		l.Backward(xs, grad)
		opt.Step(l.Params())
	}
	last := lossAt()
	if last > first*0.05 {
		t.Fatalf("SGD failed to fit linear target: loss %v -> %v", first, last)
	}
}

func TestLRScheduleGeometric(t *testing.T) {
	s := LRSchedule{Start: 1e-4, End: 1e-7, Epochs: 4}
	want := []float64{1e-4, 1e-5, 1e-6, 1e-7}
	for e, w := range want {
		got := float64(s.At(e))
		if math.Abs(got-w) > w*0.01 {
			t.Fatalf("LR at epoch %d = %v, want %v", e, got, w)
		}
	}
	if s.At(10) != s.At(3) {
		t.Fatal("LR beyond schedule must clamp to End")
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.FromSlice([]float32{10, 0, 0, 0, 10, 0}, 2, 3)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 1})
	if loss > 0.01 {
		t.Fatalf("confident correct predictions should give near-zero loss, got %v", loss)
	}
	lossBad, _ := SoftmaxCrossEntropy(logits, []int{2, 2})
	if lossBad < 5 {
		t.Fatalf("wrong predictions should give large loss, got %v", lossBad)
	}
	// gradient rows sum to zero (softmax property)
	for i := 0; i < 2; i++ {
		var s float32
		for j := 0; j < 3; j++ {
			s += grad.At(i, j)
		}
		if math.Abs(float64(s)) > 1e-5 {
			t.Fatalf("gradient row %d sums to %v, want 0", i, s)
		}
	}
	if acc := Accuracy(logits, []int{0, 1}); acc != 1 {
		t.Fatalf("Accuracy = %v, want 1", acc)
	}
	if acc := Accuracy(logits, []int{1, 0}); acc != 0 {
		t.Fatalf("Accuracy = %v, want 0", acc)
	}
}

func TestSoftmaxCrossEntropyGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	logits := randInput(rng, 3, 4)
	labels := []int{1, 3, 0}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	const eps, tol = 1e-3, 1e-3
	for _, i := range pickIndices(rng, logits.Len(), 8) {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig
		num := float64(lp-lm) / (2 * eps)
		if math.Abs(num-float64(grad.Data[i])) > tol {
			t.Fatalf("CE grad mismatch at %d: %v vs %v", i, grad.Data[i], num)
		}
	}
}

func TestSigmoid(t *testing.T) {
	if Sigmoid(0) != 0.5 {
		t.Fatalf("Sigmoid(0) = %v", Sigmoid(0))
	}
	if Sigmoid(10) < 0.999 || Sigmoid(-10) > 0.001 {
		t.Fatal("Sigmoid saturation incorrect")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	build := func(seed int64) *Graph {
		rng := rand.New(rand.NewSource(seed))
		return sequential(
			NewConv2D(rng, 3, 4, 3, 1, 1, true),
			NewBatchNorm(4),
			NewReLU6(),
			NewMaxPool(2),
			NewPWConv1(rng, 4, 2, true),
		)
	}
	rng := rand.New(rand.NewSource(20))
	g1 := build(1)
	// Train-mode forward to move the BN running stats off their defaults.
	g1.Forward(randInput(rng, 2, 3, 8, 8), true)
	var buf bytes.Buffer
	if err := g1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2 := build(2) // different init
	if err := g2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 1, 3, 8, 8)
	o1 := g1.Forward(x, false)
	o2 := g2.Forward(x, false)
	for i := range o1.Data {
		if o1.Data[i] != o2.Data[i] {
			t.Fatal("loaded graph output differs from saved graph")
		}
	}
}

func TestLoadRejectsMismatchedArchitecture(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g1 := sequential(NewPWConv1(rng, 3, 4, false))
	g2 := sequential(NewPWConv1(rng, 3, 5, false))
	var buf bytes.Buffer
	if err := g1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := g2.Load(&buf); err == nil {
		t.Fatal("Load must reject a shape-mismatched snapshot")
	}
}

func TestGraphCostCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := sequential(NewConv2D(rng, 3, 8, 3, 1, 1, false))
	row := Costs(g, []int{0, 3, 8, 8})[0]
	// 8*3*9 MACs per output pixel, 8*8 output pixels.
	if want := int64(8 * 3 * 9 * 64); row.MACs != want {
		t.Fatalf("macs = %d, want %d", row.MACs, want)
	}
	// The weights, the input and the output, in float32.
	if want := int64(8*3*9+3*64+8*64) * 4; row.Bytes != want {
		t.Fatalf("bytes = %d, want %d", row.Bytes, want)
	}
}

func TestGraphDefaultChaining(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := NewGraph()
	g.Add(NewPWConv1(rng, 3, 4, false))
	g.Add(NewReLU()) // no explicit inputs: chains from previous node
	out := g.Forward(randInput(rng, 1, 3, 2, 2), false)
	if out.Dim(1) != 4 {
		t.Fatalf("chained graph output %v", out.Shape())
	}
}

// sequential chains layers, each fed by the one before.
func sequential(layers ...Layer) *Graph {
	g := NewGraph()
	for _, l := range layers {
		g.Add(l)
	}
	return g
}
