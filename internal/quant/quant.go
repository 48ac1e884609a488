// Package quant implements the fixed-point quantization the paper applies
// for FPGA deployment (§6.4.1): symmetric linear quantization of weights
// and intermediate feature maps at arbitrary bit widths, the five
// weight/feature-map schemes of Table 7, and the grouped per-layer
// quantization study of Figure 2(a) (parameter compression vs feature-map
// compression on an AlexNet-class model).
//
// Every fixed-point number here, weight or feature map, has one scale rule
// and one rounding rule: a clip — a tensor's largest absolute finite value, a
// map's taken once over a calibration set (CalibrateActivations) — spans a
// symmetric grid, onto which a value is rounded half to even (Quantizer).
// Table 7's schemes and Figure 2(a)'s series emulate that in float32
// (Emulate: "fake quantization"), reproducing the accuracy effect of the
// hardware number format. The int8 deployment path is real fixed-point:
// Export lowers a trained graph into a QuantizedModel that computes in
// int8×int8→int32 arithmetic (per-channel weight scales, per-tensor
// activation scales, batch-norm folded into the pointwise-conv scales) on the
// packed integer GEMM kernels in internal/tensor.
package quant

import (
	"fmt"
	"math"
	"slices"

	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// Quantizer maps float32 values onto a signed fixed-point grid with the
// given total bit width and scale (value ≈ code × Scale): codes in
// ±(2^(Bits−1) − 1) at 2 to 31 bits, ±1 at 1 bit, none (float32) at 0 or ≥ 32.
type Quantizer struct {
	Bits  int
	Scale float32
}

// grid returns the Quantizer whose largest code stands for clip, the one
// scale rule: Scale = clip / (2^(bits−1) − 1), clip itself at 1 bit, and 1
// where that would not be finite and positive (a zero or non-finite clip,
// underflow, a float32 width), so no kernel is handed a zero or Inf scale.
func grid(bits int, clip float32) Quantizer {
	q := Quantizer{Bits: bits, Scale: 1}
	if bits < 1 || bits >= 32 {
		return q
	}
	if s := clip / float32(max(math.Ldexp(1, bits-1)-1, 1)); s > 0 && !math.IsInf(float64(s), 0) {
		q.Scale = s
	}
	return q
}

// Calibrate returns the quantizer whose grid covers data, its clip the
// largest absolute finite value (min-max calibration) or at 1 bit the mean
// one (BinaryConnect's binarization). NaN and ±Inf observations (sensor
// glitches, overflow upstream) are skipped; no finite non-zero value: Scale 1.
func Calibrate(bits int, data []float32) Quantizer {
	if bits == 1 {
		var sum, n float64
		for _, v := range data {
			if a := math.Abs(float64(v)); a <= math.MaxFloat32 {
				sum, n = sum+a, n+1
			}
		}
		return grid(1, float32(sum/max(n, 1)))
	}
	return grid(bits, tensor.MaxAbsFinite(data))
}

// Apply fake-quantizes data in place: each value becomes its code × Scale,
// the code rounded half to even and clamped to the grid, NaN to code 0 — at
// 8 bits bit for bit tensor.CodeRNE(v / Scale) × Scale. At 1 bit the code is
// the sign, +1 for +0 and NaN. At 0 or ≥ 32 bits data is left as it is.
func (q Quantizer) Apply(data []float32) {
	if q.Bits < 1 || q.Bits >= 32 {
		return
	}
	scale, maxC := float64(q.Scale), math.Ldexp(1, q.Bits-1)-1 // 0 at 1 bit: c is ±0, v's sign
	for i, v := range data {
		c := math.RoundToEven(min(max(float64(v)/scale, -maxC), maxC))
		if math.IsNaN(c) {
			c = 0
		}
		if q.Bits == 1 {
			c = math.Copysign(1, c)
		}
		// Through an integer, as the engine's codes are: −0 is code 0, +0.
		data[i] = float32(float64(int32(c)) * scale)
	}
}

// QuantizeTensor calibrates on t and fake-quantizes it in place.
func QuantizeTensor(t *tensor.Tensor, bits int) { Calibrate(bits, t.Data).Apply(t.Data) }

// QuantizeParams fake-quantizes every parameter of g in place with
// per-tensor calibration and returns a function restoring the original
// float32 values.
func QuantizeParams(g *nn.Graph, bits int) (restore func()) { return quantizeParams(g.Params(), bits) }

// quantizeParams is QuantizeParams over the given parameters.
func quantizeParams(params []*nn.Param, bits int) (restore func()) {
	snap := make([][]float32, len(params))
	for i, p := range params {
		snap[i] = slices.Clone(p.W.Data)
		QuantizeTensor(p.W, bits)
	}
	return func() {
		for i, p := range params {
			copy(p.W.Data, snap[i])
		}
	}
}

// Emulated is a graph whose inference forward emulates a fixed-point format
// for its feature maps: each node's output is rounded in place onto its own
// static grid before any consumer reads it, by the observer (nn.Plan.RunInto)
// of the graph's plan compiled under a mask marking every node — one lane,
// sample after sample, so no output depends on the batch. A detect.Model.
type Emulated struct {
	plans *nn.PlanCache
	fm    []Quantizer // node i's output grid
}

// Emulate returns g with every node's output on a bits-bit grid spanned by
// its clip over the calibration batches on the float model, the calibration
// Export makes (CalibrateActivations); later changes to g's parameters move
// the maps, not the grids.
func Emulate(g *nn.Graph, bits int, calib []*tensor.Tensor) (Emulated, error) {
	every := make([]bool, len(g.Nodes))
	for i := range every {
		every[i] = true
	}
	e := Emulated{plans: nn.NewPlanCache(g, every), fm: make([]Quantizer, len(g.Nodes))}
	clips, err := CalibrateActivations(e.plans, calib)
	if err != nil {
		return Emulated{}, err
	}
	for i, clip := range clips.Node {
		e.fm[i] = grid(bits, clip)
	}
	return e, nil
}

// Forward runs the emulated inference forward of x; train is ignored.
func (e Emulated) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	return e.plans.For(x.Shape()).Run(x, func(i int, data []float32) { e.fm[i].Apply(data) })
}

// Scheme is one Table 7 quantization configuration.
type Scheme struct {
	ID         int
	FMBits     int // 0 = float32
	WeightBits int // 0 = float32
}

// String renders e.g. "FM9/W11" or "Float32".
func (s Scheme) String() string {
	if s.FMBits == 0 && s.WeightBits == 0 {
		return "Float32"
	}
	return fmt.Sprintf("FM%d/W%d", s.FMBits, s.WeightBits)
}

// Table7Schemes are the five schemes evaluated in Table 7.
var Table7Schemes = []Scheme{
	{ID: 0, FMBits: 0, WeightBits: 0},
	{ID: 1, FMBits: 9, WeightBits: 11},
	{ID: 2, FMBits: 9, WeightBits: 10},
	{ID: 3, FMBits: 8, WeightBits: 11},
	{ID: 4, FMBits: 8, WeightBits: 10},
}

// WithScheme runs fn on g under the scheme — feature maps emulated by the
// model fn is handed, on grids calibrated over calib (Emulate), weights
// fake-quantized in place — and restores the float weights afterwards.
func WithScheme(g *nn.Graph, s Scheme, calib []*tensor.Tensor, fn func(m Emulated)) error {
	m, err := Emulate(g, s.FMBits, calib)
	if err != nil {
		return err
	}
	defer QuantizeParams(g, s.WeightBits)()
	fn(m)
	return nil
}

// ParamBytesAtBits returns the model size in bytes when every parameter is
// stored with the given bit width (0 = float32).
func ParamBytesAtBits(g *nn.Graph, bits int) int64 {
	if bits <= 0 {
		bits = 32
	}
	return g.NumParams() * int64(bits) / 8
}

// FMBytesAtBits returns the size in bytes at the given bit width (0 =
// float32) of one image's intermediate feature maps: every output of a
// graph's price table (nn.Costs).
func FMBytesAtBits(costs []nn.NodeCost, bits int) int64 {
	if bits <= 0 {
		bits = 32
	}
	var elems int64
	for _, c := range costs {
		n := int64(1)
		for _, d := range c.Out {
			n *= int64(d)
		}
		elems += n
	}
	return elems * int64(bits) / 8
}
