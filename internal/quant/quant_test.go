package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"skynet/internal/backbone"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// quantizeOne fake-quantizes one value the way Apply does a tensor's.
func quantizeOne(q Quantizer, v float32) float32 {
	d := []float32{v}
	q.Apply(d)
	return d[0]
}

func TestCalibrateCoversRange(t *testing.T) {
	data := []float32{-3, 0.5, 2.9}
	q := Calibrate(8, data)
	if quantizeOne(q, 3) > 3+1e-6 || quantizeOne(q, -3) < -3-q.Scale {
		t.Fatal("calibrated range must cover the data")
	}
	if math.Abs(float64(quantizeOne(q, 2.9)-2.9)) > float64(q.Scale)/2+1e-6 {
		t.Fatal("max value must quantize within half a step")
	}
}

func TestQuantizeZeroPreserved(t *testing.T) {
	q := Calibrate(8, []float32{-1, 1})
	if quantizeOne(q, 0) != 0 {
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
			qv := quantizeOne(q, v)
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

// TestCalibrateOverBits: every width calibrates without a panic to a finite
// positive scale; 0 and ≥ 32 bits are float32 (scale 1, data untouched), 1
// bit is binary and 2 to 31 bits round onto the symmetric grid ±(2^(b−1) − 1).
func TestCalibrateOverBits(t *testing.T) {
	data := []float32{-3, -1.25, -0.5, 0, 0.25, 1, 2.5, 3}
	for _, bits := range []int{0, 1, 2, 8, 16, 31, 32, 64, 65} {
		q := Calibrate(bits, data)
		if !(q.Scale > 0) || math.IsInf(float64(q.Scale), 0) {
			t.Fatalf("%d bits: scale %v", bits, q.Scale)
		}
		got := append([]float32(nil), data...)
		q.Apply(got)
		for i, v := range got {
			code := math.Round(float64(v) / float64(q.Scale))
			onGrid := float32(code*float64(q.Scale)) == v
			switch {
			case bits < 1 || bits >= 32:
				if q.Scale != 1 || v != data[i] {
					t.Fatalf("%d bits is float32: scale %v, %v became %v", bits, q.Scale, data[i], v)
				}
			case bits == 1:
				if math.Abs(code) != 1 || !onGrid {
					t.Fatalf("1 bit: %v became %v, not ±%v", data[i], v, q.Scale)
				}
			default:
				// Above 16 bits a step near the clip is finer than a float32
				// resolves, so the code is not recoverable from the value.
				lim := math.Ldexp(1, bits-1) - 1
				if math.Abs(float64(v-data[i])) > float64(q.Scale)/2*(1+1e-6) || bits <= 16 && (!onGrid || math.Abs(code) > lim) {
					t.Fatalf("%d bits: %v became %v, code %v off the grid ±%v or more than half a step away", bits, data[i], v, code, lim)
				}
			}
		}
	}
}

// TestApply8BitsIsCodeRNE: at 8 bits a value becomes exactly
// tensor.CodeRNE(v / scale) × scale, the int8 engine's code, on every tie
// between two codes, at both ends of the range and beyond them, for ±0, ±Inf
// and NaN.
func TestApply8BitsIsCodeRNE(t *testing.T) {
	for _, scale := range []float32{0.25, 0.37, 3} {
		var vals []float32
		for k := -130; k <= 130; k++ {
			vals = append(vals, float32((float64(k)+0.5)*float64(scale)), float32(float64(k)*float64(scale)))
		}
		inf := float32(math.Inf(1))
		vals = append(vals, 0, float32(math.Copysign(0, -1)), -0.3*scale, 1e30, -1e30, inf, -inf, float32(math.NaN()))
		got := append([]float32(nil), vals...)
		Quantizer{Bits: 8, Scale: scale}.Apply(got)
		for i, v := range vals {
			want := float32(float64(tensor.CodeRNE(float64(v)/float64(scale))) * float64(scale))
			if math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("scale %v: %v became %v, CodeRNE gives %v", scale, v, got[i], want)
			}
		}
	}
}

// TestOneBitIsBinary: a 1-bit tensor keeps every value's sign (zero reads
// +), has no zero and one magnitude, its mean absolute value.
func TestOneBitIsBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(257)
	x.RandNormal(rng, 0, 0.1) // mostly under 0.5: a unit step would zero them
	x.Data[7] = 0
	before := append([]float32(nil), x.Data...)
	var mean float64
	for _, v := range before {
		mean += math.Abs(float64(v))
	}
	mean /= float64(len(before))
	QuantizeTensor(x, 1)
	mag := x.Data[0]
	if mag < 0 {
		mag = -mag
	}
	if math.Abs(float64(mag)-mean) > 1e-6*mean {
		t.Fatalf("magnitude %v, mean |v| is %v", mag, mean)
	}
	for i, v := range x.Data {
		if v != mag && v != -mag || (v < 0) != (before[i] < 0) {
			t.Fatalf("element %d: %v became %v, not ±%v with its sign", i, before[i], v, mag)
		}
	}
}

// TestEmulatedBatchEqualsSamples: an emulated scheme's grids are fixed by
// calibration, not by the batch, so a batch of 8 — one image scaled 4×,
// which would widen a grid taken from the batch — gives each image the
// output it gets alone, bit for bit.
func TestEmulatedBatchEqualsSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	settle(g, rng)
	x := randBatch(rng, 8, 3, 48, 96)
	per := x.Len() / 8
	for i := 5 * per; i < 6*per; i++ {
		x.Data[i] *= 4
	}
	calib := []*tensor.Tensor{randBatch(rng, 4, 3, 48, 96)}
	err := WithScheme(g, Table7Schemes[3], calib, func(m Emulated) {
		batch := m.Forward(x, false)
		outPer := batch.Len() / 8
		for i := 0; i < 8; i++ {
			one := m.Forward(tensor.FromSlice(x.Data[i*per:(i+1)*per], 1, 3, 48, 96), false)
			if !sameBits(one.Data, batch.Data[i*outPer:(i+1)*outPer]) {
				t.Fatalf("image %d: its output in the batch of 8 differs from its own", i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
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
	return sequential(
		nn.NewConv2D(rng, 3, 4, 3, 1, 1, true),
		nn.NewBatchNorm(4),
		nn.NewReLU6(),
		nn.NewPWConv1(rng, 4, 2, true),
	)
}

func TestQuantizeParamsRestore(t *testing.T) {
	g := buildTinyNet(1)
	var orig [][]float32
	for _, p := range g.Params() {
		orig = append(orig, append([]float32(nil), p.W.Data...))
	}
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

func TestEmulateQuantizesActivations(t *testing.T) {
	g := buildTinyNet(2)
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(1, 3, 6, 6)
	x.RandUniform(rng, 0, 1)
	calib := []*tensor.Tensor{x}
	outFloat := g.Forward(x, false)
	q3, err := Emulate(g, 3, calib)
	if err != nil {
		t.Fatal(err)
	}
	f32, _ := Emulate(g, 0, calib)
	outQ, outF32 := q3.Forward(x, false), f32.Forward(x, false)
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
	if _, err := Emulate(g, 8, nil); err == nil {
		t.Fatal("an emulation with no calibration batch must error")
	}
}

func TestWithSchemeRestores(t *testing.T) {
	g := buildTinyNet(3)
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(1, 3, 6, 6)
	x.RandUniform(rng, 0, 1)
	ref := g.Forward(x, false).Clone()
	var inScheme *tensor.Tensor
	err := WithScheme(g, Scheme{ID: 4, FMBits: 4, WeightBits: 4}, []*tensor.Tensor{x}, func(m Emulated) {
		inScheme = m.Forward(x, false)
	})
	if err != nil {
		t.Fatal(err)
	}
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
	return sequential(
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

// sequential chains layers, each fed by the one before.
func sequential(layers ...nn.Layer) *nn.Graph {
	g := nn.NewGraph()
	for _, l := range layers {
		g.Add(l)
	}
	return g
}
