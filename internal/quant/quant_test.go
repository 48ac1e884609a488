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
	rng := rand.New(rand.NewSource(6))
	x := tensor.New(1, 3, 4, 4)
	x.RandUniform(rng, 0, 1)
	g.Forward(x, false)
	f32 := FMBytesAtBits(g, 0)
	f8 := FMBytesAtBits(g, 8)
	if f32 != 4*f8 || f8 <= 0 {
		t.Fatalf("FM sizes inconsistent: %d vs %d", f32, f8)
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

func TestFloat16ExactValues(t *testing.T) {
	// Values exactly representable in binary16 must round-trip.
	for _, v := range []float32{0, 1, -1, 0.5, 2, 1024, -0.25, 6} {
		if got := Float16Round(v); got != v {
			t.Fatalf("Float16Round(%v) = %v", v, got)
		}
	}
}

func TestFloat16RoundingError(t *testing.T) {
	// Half precision has a 10-bit mantissa: relative error ≤ 2^-11.
	for _, v := range []float32{1.2345, -3.14159, 100.7, 0.001234} {
		got := Float16Round(v)
		rel := math.Abs(float64(got-v)) / math.Abs(float64(v))
		if rel > 1.0/2048 {
			t.Fatalf("Float16Round(%v) = %v, relative error %v", v, got, rel)
		}
	}
}

func TestFloat16Extremes(t *testing.T) {
	// Values beyond the half range overflow to infinity.
	if !math.IsInf(float64(Float16Round(1e6)), 1) {
		t.Fatalf("1e6 should overflow to +Inf, got %v", Float16Round(1e6))
	}
	if !math.IsInf(float64(Float16Round(-1e6)), -1) {
		t.Fatal("-1e6 should overflow to -Inf")
	}
	// Tiny values underflow through subnormals to zero.
	if got := Float16Round(1e-9); got != 0 {
		t.Fatalf("1e-9 should underflow to 0, got %v", got)
	}
	// Subnormal half values survive.
	if got := Float16Round(3e-6); got == 0 {
		t.Fatal("3e-6 is representable as a half subnormal")
	}
}

// Property: Float16Round is idempotent and monotone.
func TestQuickFloat16Properties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := float32(rng.NormFloat64() * 10)
		b := float32(rng.NormFloat64() * 10)
		if a > b {
			a, b = b, a
		}
		ra, rb := Float16Round(a), Float16Round(b)
		return Float16Round(ra) == ra && ra <= rb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWithFloat16RestoresModel(t *testing.T) {
	g := buildTinyNet(20)
	rng := rand.New(rand.NewSource(21))
	x := tensor.New(1, 3, 6, 6)
	x.RandUniform(rng, 0, 1)
	ref := g.Forward(x, false).Clone()
	var inHalf *tensor.Tensor
	WithFloat16(g, func(m Emulated) {
		inHalf = m.Forward(x, false)
	})
	after := g.Forward(x, false)
	var diff float64
	for i := range ref.Data {
		diff += math.Abs(float64(ref.Data[i] - inHalf.Data[i]))
		if after.Data[i] != ref.Data[i] {
			t.Fatal("WithFloat16 must restore float32 behaviour")
		}
	}
	// FP16 is close to FP32 — small but generally nonzero perturbation.
	if diff > 0.1*float64(len(ref.Data)) {
		t.Fatalf("half precision perturbed the output too much: %v", diff)
	}
}
