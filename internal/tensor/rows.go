package tensor

import "math"

// Row kernels. Everything a frame does outside the GEMM micro-tile is a loop
// over one contiguous row: the depth-wise 3×3 taps, the 2×2 pool, batch norm
// and the clamp, the small-problem kernel's a·b row, requantisation, the
// calibrator's max-abs scan. Each such loop is Go code where it always was —
// here, in internal/nn, in internal/quant — and that Go loop is the purego
// implementation, the arm64 one and the bitwise oracle. On amd64 with AVX2
// the loop's leading multiple of the lane count is first handed to an
// assembly routine (rows_avx2_amd64.s) that performs the same operations on
// the same values in the same order, eight (or sixteen) elements at a time;
// the Go loop then finishes whatever is left. No routine reads or writes past
// the slices it is given.
//
// rowKernels is the whole dispatch table: one function value per assembly
// routine, nil where the Go loop runs alone. SetKernel assigns the table as a
// unit (kernel.go), so one switch turns every row kernel on or off together
// with the micro-kernels, and TestSetKernel walks the struct by reflection —
// a routine added here cannot be left out of the seam.
type rowKernels struct {
	maxAbs     func(p *float32, n int) float32
	tail       func(dst, src *float32, n int, gamma, mean, inv, beta, hi float32, mode int)
	axpy       func(c, b *float32, n int, a float32)
	storeTile  func(c *float32, ldc int, tile *[gemmMR * gemmNR]float32, bias, gamma, mean, inv, beta *float32, hi float32, mode int)
	dw3        func(o *float32, n int, in *float32, w int, ker *float32, nky int, bias float32)
	pool2      func(dst, r0, r1 *float32, n int)
	dw3I8      func(o *int32, n int, in *int8, w int, ker *int8, nky int, bias int32)
	pool2I8    func(dst, r0, r1 *int8, n int)
	requant    func(dst *int8, acc *int32, n int, bias int32, mult float32, lo, hi int8)
	rescale    func(dst, src *int8, n int, mult float32, lo, hi int8)
	storeTileI func(dst *int8, ldc int, tile *[i8MR * i8NR]int32, bias *int32, mult *float32, lo, hi int8)
	quantize   func(dst *int8, src *float32, n int, inv float64)
	dequantize func(dst *float32, src *int8, n int, scale float32)
}

// rows is the table in use; SetKernel owns it.
var rows rowKernels

// Lane counts: a routine takes a multiple of its lane count and the Go loop
// the rest.
const (
	rowLanes     = 8  // float32 and int32 lanes of one YMM register
	rowLanesPool = 16 // outputs of one 2×2 code-pool step: 32 bytes of each row
)

// Row-tail modes, shared with the assembly.
const (
	tailBN   = 1 // BNEval
	tailReLU = 2 // ReLUClamp, after BNEval when both
	tailAcc  = 4 // tile stores only: add the tile to C, no bias
)

// MaxAbsFinite returns the largest finite |v| in data; NaN and ±Inf are
// ignored (NaN fails every comparison, Inf fails the MaxFloat32 bound). A
// maximum over non-negative finite values does not depend on the order it is
// taken in, so the vector scan is exact.
//
//skynet:hotpath
func MaxAbsFinite(data []float32) float32 {
	var maxAbs float32
	if f, n := rows.maxAbs, len(data)&^(rowLanes-1); f != nil && n > 0 {
		maxAbs, data = f(&data[0], n), data[n:]
	}
	for _, v := range data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs && a <= math.MaxFloat32 {
			maxAbs = a
		}
	}
	return maxAbs
}

// clampHi is ReLUClamp's upper bound for cap.
//
//skynet:hotpath
func clampHi(cap float32) float32 {
	if cap > 0 {
		return cap
	}
	return float32(math.Inf(1))
}

// BNEvalRow writes BNEval of each element of src to dst (which may be src).
//
//skynet:hotpath
func BNEvalRow(dst, src []float32, gamma, mean, inv, beta float32) {
	rowTail(dst, src, tailBN, gamma, mean, inv, beta, 0)
}

// ReLUClampRow writes ReLUClamp of each element of src to dst (which may be
// src).
//
//skynet:hotpath
func ReLUClampRow(dst, src []float32, cap float32) {
	rowTail(dst, src, tailReLU, 0, 0, 0, 0, cap)
}

// rowTail applies mode's operations — BNEval, then ReLUClamp — to each
// element of src, into dst; with neither it does nothing.
//
//skynet:hotpath
func rowTail(dst, src []float32, mode int, g, mean, inv, bt, cap float32) {
	if mode == 0 {
		return
	}
	dst = dst[:len(src)]
	if f, n := rows.tail, len(src)&^(rowLanes-1); f != nil && n > 0 {
		f(&dst[0], &src[0], n, g, mean, inv, bt, clampHi(cap), mode)
		dst, src = dst[n:], src[n:]
	}
	switch mode {
	case tailBN | tailReLU:
		for j, v := range src {
			dst[j] = ReLUClamp(BNEval(v, g, mean, inv, bt), cap)
		}
	case tailBN:
		for j, v := range src {
			dst[j] = BNEval(v, g, mean, inv, bt)
		}
	case tailReLU:
		for j, v := range src {
			dst[j] = ReLUClamp(v, cap)
		}
	}
}

// axpyRow adds a·b[j] to c[j]: the small-problem kernel's inner loop, one k
// step of one row of C.
//
//skynet:hotpath
func axpyRow(c, b []float32, a float32) {
	c = c[:len(b)]
	if f, n := rows.axpy, len(b)&^(rowLanes-1); f != nil && n > 0 {
		f(&c[0], &b[0], n, a)
		c, b = c[n:], b[n:]
	}
	for j, bv := range b {
		c[j] += a * bv
	}
}

// DW3Row is the vector half of a depth-wise 3-tap-wide stride-1 row, float32
// summed in float32 or int8 codes summed exactly in int32: it writes the
// leading o[i] = bias + Σ in[ky·w+i+kx]·ker[3·ky+kx], taps added in ascending
// (ky, kx), for the len(ker)/3 kernel rows given — three for an interior row,
// fewer for a row at the image's top or bottom edge — and returns how many
// outputs it wrote: a multiple of the lane count, 0 when the Go loop runs
// alone (or the element types have no kernel). The caller's loop computes the
// rest.
//
//skynet:hotpath
func DW3Row[E float32 | int8, A float32 | int32](o []A, in []E, w int, ker []E, bias A) int {
	n, nky := len(o)&^(rowLanes-1), len(ker)/3
	if n == 0 || nky == 0 {
		return 0
	}
	_ = in[(nky-1)*w+n+1] // the last element read
	switch o := any(o).(type) {
	case []float32:
		if in, ok := any(in).([]float32); ok && rows.dw3 != nil {
			rows.dw3(&o[0], n, &in[0], w, &any(ker).([]float32)[0], nky, float32(bias))
			return n
		}
	case []int32:
		if in, ok := any(in).([]int8); ok && rows.dw3I8 != nil {
			rows.dw3I8(&o[0], n, &in[0], w, &any(ker).([]int8)[0], nky, int32(bias))
			return n
		}
	}
	return 0
}

// MaxPool2Row is the vector half of one 2×2 max-pool output row: dst[i] is
// r0[2i] replaced in turn by r0[2i+1], r1[2i], r1[2i+1] where strictly
// greater. It returns how many outputs it wrote, as DW3Row does.
//
//skynet:hotpath
func MaxPool2Row(dst, r0, r1 []float32) int {
	f, n := rows.pool2, len(dst)&^(rowLanes-1)
	if f == nil || n == 0 {
		return 0
	}
	_, _ = r0[2*n-1], r1[2*n-1]
	f(&dst[0], &r0[0], &r1[0], n)
	return n
}

// MaxPool2RowInt8 is MaxPool2Row on codes.
//
//skynet:hotpath
func MaxPool2RowInt8(dst, r0, r1 []int8) int {
	f, n := rows.pool2I8, len(dst)&^(rowLanesPool-1)
	if f == nil || n == 0 {
		return 0
	}
	_, _ = r0[2*n-1], r1[2*n-1]
	f(&dst[0], &r0[0], &r1[0], n)
	return n
}

// RequantizeRow writes RequantizeRNE(acc[i]+bias, mult, lo, hi) to dst[i].
//
//skynet:hotpath
func RequantizeRow(dst []int8, acc []int32, bias int32, mult float32, lo, hi int8) {
	dst = dst[:len(acc)]
	if f, n := rows.requant, len(acc)&^(rowLanes-1); f != nil && n > 0 {
		f(&dst[0], &acc[0], n, bias, mult, lo, hi)
		dst, acc = dst[n:], acc[n:]
	}
	for i, a := range acc {
		dst[i] = RequantizeRNE(a+bias, mult, lo, hi)
	}
}

// RescaleCodes writes RequantizeRNE(src[i], mult, lo, hi) to dst[i]: codes
// moved onto another grid, or with mult 1 clamped on their own.
//
//skynet:hotpath
func RescaleCodes(dst, src []int8, mult float32, lo, hi int8) {
	dst = dst[:len(src)]
	if f, n := rows.rescale, len(src)&^(rowLanes-1); f != nil && n > 0 {
		f(&dst[0], &src[0], n, mult, lo, hi)
		dst, src = dst[n:], src[n:]
	}
	for i, v := range src {
		dst[i] = RequantizeRNE(int32(v), mult, lo, hi)
	}
}

// QuantizeRow is the vector half of quantisation: the leading dst[i] =
// clamp(roundToEven(float64(src[i])·inv), −127, 127), NaN to 0. It returns
// how many codes it wrote, as DW3Row does.
//
//skynet:hotpath
func QuantizeRow(dst []int8, src []float32, inv float64) int {
	f, n := rows.quantize, len(src)&^(rowLanes-1)
	if f == nil || n == 0 {
		return 0
	}
	_ = dst[n-1]
	f(&dst[0], &src[0], n, inv)
	return n
}

// DequantizeRow is the vector half of dequantisation: the leading dst[i] =
// float32(src[i])·scale. It returns how many values it wrote.
//
//skynet:hotpath
func DequantizeRow(dst []float32, src []int8, scale float32) int {
	f, n := rows.dequantize, len(src)&^(rowLanes-1)
	if f == nil || n == 0 {
		return 0
	}
	_ = dst[n-1]
	f(&dst[0], &src[0], n, scale)
	return n
}
