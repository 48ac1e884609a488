// Package quant implements the fixed-point quantization the paper applies
// for FPGA deployment (§6.4.1): symmetric linear quantization of weights
// and intermediate feature maps at arbitrary bit widths, the five
// weight/feature-map schemes of Table 7, and the grouped per-layer
// quantization study of Figure 2(a) (parameter compression vs feature-map
// compression on an AlexNet-class model).
//
// Two execution modes are provided. The Table 7 schemes are emulated in
// float32 ("fake quantization"): values are rounded to the fixed-point grid
// and clamped to its range, which reproduces the accuracy effect of the
// hardware number format while the arithmetic stays in software. The int8
// deployment path is real fixed-point: Export lowers a trained graph into a
// QuantizedModel that computes in int8×int8→int32 arithmetic (per-channel
// weight scales, per-tensor activation scales from CalibrateActivations,
// batch-norm folded into the pointwise-conv scales) on the packed integer
// GEMM kernels in internal/tensor.
package quant

import (
	"fmt"
	"math"

	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// Quantizer maps float32 values onto a signed fixed-point grid with the
// given total bit width and scale (value ≈ code × Scale).
type Quantizer struct {
	Bits  int
	Scale float32
}

// Calibrate returns a quantizer whose range covers the maximum absolute
// finite value of data — the standard min-max symmetric calibration.
//
// Degenerate calibration sets are defined to yield Scale == 1 rather than a
// zero or non-finite scale that would poison downstream kernels: an empty
// slice, an all-zero slice, and a slice containing only NaN/±Inf all
// calibrate to Scale 1. NaN and ±Inf observations (sensor glitches, overflow
// in a preceding layer) are skipped, so a single bad sample cannot blow up
// the range for the rest of the data.
func Calibrate(bits int, data []float32) Quantizer {
	q := Quantizer{Bits: bits}
	levels := float32(int64(1)<<(bits-1)) - 1
	maxAbs := tensor.MaxAbsFinite(data)
	if maxAbs == 0 || levels <= 0 {
		q.Scale = 1
		return q
	}
	q.Scale = maxAbs / levels
	if q.Scale == 0 || math.IsInf(float64(q.Scale), 0) {
		// Subnormal underflow (maxAbs/levels rounds to 0) — fall back to the
		// degenerate scale rather than divide by zero in Quantize.
		q.Scale = 1
	}
	return q
}

// MaxCode returns the largest positive code.
func (q Quantizer) MaxCode() int64 { return int64(1)<<(q.Bits-1) - 1 }

// Quantize returns the fixed-point approximation of v.
func (q Quantizer) Quantize(v float32) float32 {
	if q.Bits <= 0 || q.Bits >= 32 {
		return v
	}
	code := math.Round(float64(v) / float64(q.Scale))
	maxC := float64(q.MaxCode())
	if code > maxC {
		code = maxC
	}
	if code < -maxC-1 {
		code = -maxC - 1
	}
	return float32(code) * q.Scale
}

// Apply fake-quantizes data in place.
func (q Quantizer) Apply(data []float32) {
	if q.Bits <= 0 || q.Bits >= 32 {
		return
	}
	scale := float64(q.Scale)
	maxC := float64(q.MaxCode())
	minC := -maxC - 1
	for i, v := range data {
		code := math.Round(float64(v) / scale)
		if code > maxC {
			code = maxC
		}
		if code < minC {
			code = minC
		}
		data[i] = float32(code * scale)
	}
}

// QuantizeTensor calibrates on t and fake-quantizes it in place.
func QuantizeTensor(t *tensor.Tensor, bits int) {
	if bits <= 0 || bits >= 32 {
		return
	}
	Calibrate(bits, t.Data).Apply(t.Data)
}

// SnapshotParams copies all parameter values of g for later restoration.
func SnapshotParams(g *nn.Graph) [][]float32 {
	params := g.Params()
	snap := make([][]float32, len(params))
	for i, p := range params {
		snap[i] = append([]float32(nil), p.W.Data...)
	}
	return snap
}

// RestoreParams writes a snapshot back into g's parameters.
func RestoreParams(g *nn.Graph, snap [][]float32) {
	params := g.Params()
	if len(params) != len(snap) {
		panic(fmt.Sprintf("quant: snapshot has %d tensors, graph has %d", len(snap), len(params)))
	}
	for i, p := range params {
		copy(p.W.Data, snap[i])
	}
}

// QuantizeParams fake-quantizes every parameter of g in place with
// per-tensor calibration and returns a function restoring the original
// float32 values.
func QuantizeParams(g *nn.Graph, bits int) (restore func()) {
	snap := SnapshotParams(g)
	if bits > 0 && bits < 32 {
		for _, p := range g.Params() {
			QuantizeTensor(p.W, bits)
		}
	}
	return func() { RestoreParams(g, snap) }
}

// InstallFMHook makes every intermediate feature map of g pass through a
// dynamically-calibrated fake quantizer of the given bit width, emulating
// fixed-point activation storage. It returns a function removing the hook.
func InstallFMHook(g *nn.Graph, bits int) (remove func()) {
	prev := g.FMHook
	if bits > 0 && bits < 32 {
		g.FMHook = func(i int, t *tensor.Tensor) {
			if prev != nil {
				prev(i, t)
			}
			QuantizeTensor(t, bits)
		}
	}
	return func() { g.FMHook = prev }
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

// WithScheme runs fn with g quantized per the scheme (weights fake-
// quantized, feature-map hook installed) and restores the float model
// afterwards.
func WithScheme(g *nn.Graph, s Scheme, fn func()) {
	restore := QuantizeParams(g, s.WeightBits)
	remove := InstallFMHook(g, s.FMBits)
	defer restore()
	defer remove()
	fn()
}

// ParamBytesAtBits returns the model size in bytes when every parameter is
// stored with the given bit width (0 = float32).
func ParamBytesAtBits(g *nn.Graph, bits int) int64 {
	if bits <= 0 {
		bits = 32
	}
	return g.NumParams() * int64(bits) / 8
}

// FMBytesAtBits returns the total intermediate feature-map size in bytes at
// the given bit width, using the output shapes recorded by the most recent
// Forward (0 = float32).
func FMBytesAtBits(g *nn.Graph, bits int) int64 {
	if bits <= 0 {
		bits = 32
	}
	var elems int64
	for _, shp := range g.OutShapes {
		if shp == nil {
			continue
		}
		n := int64(1)
		for _, d := range shp {
			n *= int64(d)
		}
		elems += n
	}
	return elems * int64(bits) / 8
}
