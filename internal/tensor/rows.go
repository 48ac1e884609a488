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
// the Go loop then finishes whatever is left (a depth-wise row instead ends
// in one more vector, overlapping). No routine reads or writes past the
// slices it is given.
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
	dw3Band    func(o, in *float32, w, rows int, ker *float32, bias float32)
	split2     func(d0, d1, src *float32, n int)
	split2I8   func(d0, d1, src *int8, n int)
	pool2      func(dst, r0, r1 *float32, n int)
	dw3I8      func(o *int32, n int, in *int8, w int, ker *int8, nky int, bias int32)
	pool2I8    func(dst, r0, r1 *int8, n int)
	requant    func(dst *int8, acc *int32, n int, bias int32, mult float32, lo, hi int8)
	rescale    func(dst, src *int8, n int, mult float32, lo, hi int8)
	storeTileI func(dst *int8, ldc int, tile *[i8MR * i8NR]int32, bias *int32, mult *float32, lo, hi int8)
	packA      func(dst *int16, src *int8, lda, chunks int)
	packB      func(dst, src *int8, ldb, pairs int)
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

// DW3Row is the vector form of a depth-wise 3-tap-wide stride-1 row, float32
// summed in float32 or int8 codes summed exactly in int32: it writes
// o[i] = bias + Σ in[ky·w+i+kx]·ker[3·ky+kx], taps added in ascending
// (ky, kx), for the len(ker)/3 kernel rows given — three for an interior row,
// fewer for a row at the image's top or bottom edge — and returns how many
// outputs it wrote: all of o when it is a vector long and the kernel runs
// (the last vector, overlapping the one before, rewrites the same bits),
// else 0.
//
//skynet:hotpath
func DW3Row[E float32 | int8, A float32 | int32](o []A, in []E, w int, ker []E, bias A) int {
	n, nky := len(o)&^(rowLanes-1), len(ker)/3
	if n == 0 || nky == 0 {
		return 0
	}
	last := len(o) - rowLanes  // the last vector's first output
	_ = in[(nky-1)*w+len(o)+1] // the last element read
	switch o := any(o).(type) {
	case []float32:
		if in, ok := any(in).([]float32); ok && rows.dw3 != nil {
			k, bias := &any(ker).([]float32)[0], float32(bias)
			rows.dw3(&o[0], n, &in[0], w, k, nky, bias)
			rows.dw3(&o[last], rowLanes, &in[last], w, k, nky, bias)
			return len(o)
		}
	case []int32:
		if in, ok := any(in).([]int8); ok && rows.dw3I8 != nil {
			k, bias := &any(ker).([]int8)[0], int32(bias)
			rows.dw3I8(&o[0], n, &in[0], w, k, nky, bias)
			rows.dw3I8(&o[last], rowLanes, &in[last], w, k, nky, bias)
			return len(o)
		}
	}
	return 0
}

// DW3Band computes len(o)/w whole rows of a 3×3, stride-1, pad-1 depth-wise
// plane w wide, each under all three kernel rows, from the input rows at in
// (the one above o's first on), in one call, and reports whether it did: not
// without a vector kernel or a vector's width and two ends. The bits are DW3Row's.
//
//skynet:hotpath
func DW3Band(o, in []float32, w int, ker []float32, bias float32) bool {
	f, n := rows.dw3Band, len(o)/w
	if f == nil || w < rowLanes+2 || n == 0 {
		return false
	}
	_, _, _ = o[n*w-1], in[(n+2)*w-1], ker[8]
	f(&o[0], &in[0], w, n, &ker[0], bias)
	return true
}

// Deinterleave is the vector half of one row of a 2×2 reorder, float32 or
// int8: the leading d0[i] = src[2i] and d1[i] = src[2i+1], in one pass. It
// returns how many of each it wrote, as DW3Row does.
//
//skynet:hotpath
func Deinterleave[T any](d0, d1, src []T) int {
	switch s := any(src).(type) {
	case []float32:
		if f, n := rows.split2, len(d0)&^(rowLanes-1); f != nil && n > 0 {
			_, _, _ = d0[n-1], d1[n-1], s[2*n-1]
			f(&any(d0).([]float32)[0], &any(d1).([]float32)[0], &s[0], n)
			return n
		}
	case []int8:
		if f, n := rows.split2I8, len(d0)&^(rowLanesPool-1); f != nil && n > 0 {
			_, _, _ = d0[n-1], d1[n-1], s[2*n-1]
			f(&any(d0).([]int8)[0], &any(d1).([]int8)[0], &s[0], n)
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
