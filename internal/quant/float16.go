package quant

import (
	"math"

	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// IEEE 754 half-precision emulation. Several DAC-SDC GPU entries use
// 16-bit floats with TensorRT (Table 1, optimization ④); this file lets
// that deployment mode be evaluated alongside fixed point.

// Float16Round returns v rounded to the nearest representable IEEE 754
// binary16 value (round-to-nearest-even), computed in float32.
func Float16Round(v float32) float32 {
	return fromHalf(toHalf(v))
}

// toHalf converts a float32 to its binary16 bit pattern.
func toHalf(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xFF) - 127 + 15
	mant := bits & 0x7FFFFF
	switch {
	case exp >= 0x1F: // overflow or inf/NaN
		if int32(bits>>23&0xFF) == 0xFF && mant != 0 {
			return sign | 0x7E00 // NaN
		}
		return sign | 0x7C00 // ±Inf
	case exp <= 0:
		if exp < -10 {
			return sign // underflow to zero
		}
		// Subnormal: shift mantissa (with implicit 1) right.
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint16(mant >> shift)
		// Round to nearest even.
		rem := mant & ((1 << shift) - 1)
		mid := uint32(1) << (shift - 1)
		if rem > mid || (rem == mid && half&1 == 1) {
			half++
		}
		return sign | half
	default:
		half := sign | uint16(exp)<<10 | uint16(mant>>13)
		rem := mant & 0x1FFF
		if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
			half++
		}
		return half
	}
}

// fromHalf converts a binary16 bit pattern to float32.
func fromHalf(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1F)
	mant := uint32(h & 0x3FF)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3FF
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1F:
		return math.Float32frombits(sign | 0xFF<<23 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}

// Float16Tensor rounds every element of t to half precision in place.
func Float16Tensor(t *tensor.Tensor) {
	for i, v := range t.Data {
		t.Data[i] = Float16Round(v)
	}
}

// WithFloat16 runs fn on g with its parameters rounded to half precision in
// place and its feature maps rounded by the model fn is handed (the TensorRT
// FP16 deployment mode), restoring the float32 parameters afterwards.
func WithFloat16(g *nn.Graph, fn func(m Emulated)) {
	snap := SnapshotParams(g)
	for _, p := range g.Params() {
		Float16Tensor(p.W)
	}
	defer RestoreParams(g, snap)
	fn(Emulated{G: g, FM: Float16Tensor})
}
