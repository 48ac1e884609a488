//go:build amd64 && !purego

package tensor

import "skynet/internal/cpufeat"

// Declarations for the AVX2 row kernels implemented in rows_avx2_amd64.s.
// Each takes raw pointers and an element count that is a positive multiple
// of its lane count (rows.go's wrappers check the bounds and keep the
// remainder for the Go loop), touches exactly the elements its Go loop would,
// and produces exactly that loop's bits: float routines multiply and add with
// separately rounded VMULPS/VADDPS in the loop's order (never FMA), integer
// routines are exact, and the float64 requantise rounds once, to nearest
// even, like RequantizeRNE. The sweeps in rows_test.go and internal/nn hold
// each against its loop.

// maxAbsAVX2 is MaxAbsFinite over n elements.
//
//go:noescape
//skynet:hotpath
func maxAbsAVX2(p *float32, n int) float32

// rowTailAVX2 is rowTail over n elements; hi is clampHi(cap).
//
//go:noescape
//skynet:hotpath
func rowTailAVX2(dst, src *float32, n int, gamma, mean, inv, beta, hi float32, mode int)

// axpyAVX2 is axpyRow over n elements.
//
//go:noescape
//skynet:hotpath
func axpyAVX2(c, b *float32, n int, a float32)

// storeTileAVX2 is gemmCall.storeTile for a whole 4×8 tile without a column
// bias: tile + bias[r] (a nil bias is +0) or, with tailAcc, C + tile; then
// the mode's row tail with row r's statistics. The bias and statistics
// pointers address row 0 of the tile.
//
//go:noescape
//skynet:hotpath
func storeTileAVX2(c *float32, ldc int, tile *[gemmMR * gemmNR]float32, bias, gamma, mean, inv, beta *float32, hi float32, mode int)

// dw3RowAVX2 is DW3Row on float32 over n outputs and nky ∈ {1, 2, 3} kernel rows.
//
//go:noescape
//skynet:hotpath
func dw3RowAVX2(o *float32, n int, in *float32, w int, ker *float32, nky int, bias float32)

// pool2AVX2 is MaxPool2Row over n outputs.
//
//go:noescape
//skynet:hotpath
func pool2AVX2(dst, r0, r1 *float32, n int)

// dw3RowI8AVX2 is DW3Row on codes over n outputs and nky ∈ {1, 2, 3} kernel rows.
//
//go:noescape
//skynet:hotpath
func dw3RowI8AVX2(o *int32, n int, in *int8, w int, ker *int8, nky int, bias int32)

// pool2I8AVX2 is MaxPool2RowInt8 over n outputs, a multiple of 16.
//
//go:noescape
//skynet:hotpath
func pool2I8AVX2(dst, r0, r1 *int8, n int)

// requantRowAVX2 is RequantizeRow over n accumulators.
//
//go:noescape
//skynet:hotpath
func requantRowAVX2(dst *int8, acc *int32, n int, bias int32, mult float32, lo, hi int8)

// rescaleAVX2 is RescaleCodes over n codes.
//
//go:noescape
//skynet:hotpath
func rescaleAVX2(dst, src *int8, n int, mult float32, lo, hi int8)

// storeTileI8AVX2 is i8gemmCall.storeTile's requantising form for a whole
// 4×8 tile; bias (nil for none) and mult address row 0 of the tile.
//
//go:noescape
//skynet:hotpath
func storeTileI8AVX2(dst *int8, ldc int, tile *[i8MR * i8NR]int32, bias *int32, mult *float32, lo, hi int8)

// quantizeAVX2 is QuantizeRow over n values.
//
//go:noescape
//skynet:hotpath
func quantizeAVX2(dst *int8, src *float32, n int, inv float64)

// dequantizeAVX2 is DequantizeRow over n codes.
//
//go:noescape
//skynet:hotpath
func dequantizeAVX2(dst *float32, src *int8, n int, scale float32)

// nativeRowKernels is the row-kernel table this build and CPU support: every
// routine with AVX2, none without.
func nativeRowKernels() rowKernels {
	if !cpufeat.AVX2 {
		return rowKernels{}
	}
	return rowKernels{
		maxAbs:     maxAbsAVX2,
		tail:       rowTailAVX2,
		axpy:       axpyAVX2,
		storeTile:  storeTileAVX2,
		dw3:        dw3RowAVX2,
		pool2:      pool2AVX2,
		dw3I8:      dw3RowI8AVX2,
		pool2I8:    pool2I8AVX2,
		requant:    requantRowAVX2,
		rescale:    rescaleAVX2,
		storeTileI: storeTileI8AVX2,
		quantize:   quantizeAVX2,
		dequantize: dequantizeAVX2,
	}
}
