//go:build amd64 && !purego

package tensor

import "skynet/internal/cpufeat"

// Declarations for the AVX2 micro-kernels implemented in
// gemm_avx2_amd64.s. They consume exactly the packed panel layouts the
// pure-Go reference kernels consume (see microKernelRef and
// i8MicroKernelRef) and overwrite the caller's tile; correctness is pinned
// by the bitwise asm-vs-purego equivalence tests in kernel_test.go.

// gemmMicro4x8AVX2 computes one 4×8 float32 tile: per k step it loads the
// 8-wide B row once, broadcasts each of the 4 A values, and updates each
// accumulator with a separate VMULPS+VADDPS pair — two roundings per
// multiply-add, in strict k order, exactly like the pure-Go reference, so
// the result is bitwise identical to it.
//
//go:noescape
//skynet:hotpath
func gemmMicro4x8AVX2(kc int, ap, bp *float32, tile *[gemmMR * gemmNR]float32)

// i8Micro4x8AVX2 computes one 4×8 int8→int32 tile over pair-packed
// panels: per k pair it sign-extends the 16-byte B group to words
// (VPMOVSXBW), broadcasts each row's [a(i,p) a(i,p+1)] word, and lets
// VPMADDWD produce the two-step dot product, accumulated with VPADDD.
// All-integer arithmetic is exact, so the result is bitwise identical to
// the reference by construction. (The classic VPMADDUBSW byte idiom is
// deliberately not used: with u8×s8 operands its int16 accumulation can
// saturate, which would silently break exactness.)
//
//go:noescape
//skynet:hotpath
func i8Micro4x8AVX2(kp int, ap, bp *int8, tile *[i8MR * i8NR]int32)

// The slice-to-pointer adapters keep the dispatch seam's function types
// identical across implementations.
//
//skynet:hotpath
func gemmMicroAVX2(kc int, ap, bp []float32, tile *[gemmMR * gemmNR]float32) {
	gemmMicro4x8AVX2(kc, &ap[0], &bp[0], tile)
}

//skynet:hotpath
func i8MicroAVX2(kp int, ap, bp []int8, tile *[i8MR * i8NR]int32) {
	i8Micro4x8AVX2(kp, &ap[0], &bp[0], tile)
}

// nativeKernels reports the assembly kernels this build and CPU support;
// nil entries mean "use the pure-Go reference". kernel.go dispatches on
// the result.
func nativeKernels() (f32 gemmMicroFunc, i8 i8MicroFunc) {
	if !cpufeat.AVX2 {
		return nil, nil
	}
	return gemmMicroAVX2, i8MicroAVX2
}
