//go:build amd64 && !purego

package tensor

import "skynet/internal/cpufeat"

// Declarations for the micro-kernels implemented in gemm_avx2_amd64.s and
// gemm_avx512_amd64.s. Each has its dispatch variable's function type, so
// the variable holds the routine itself; each consumes exactly the packed
// panel layout the pure-Go reference consumes (microKernelRef,
// i8MicroKernelRef) and overwrites the caller's tile; correctness is pinned
// by the bitwise asm-vs-purego equivalence tests in kernel_test.go.

// gemmMicro4x16AVX2 computes one 4×16 float32 tile: per k step it loads the
// 16-wide B row as two YMM vectors, broadcasts each of the 4 A values, and
// updates each of the eight accumulators with a separate VMULPS+VADDPS pair
// — two roundings per multiply-add, in strict k order, exactly like the
// pure-Go reference, so the result is bitwise identical to it.
//
//go:noescape
//skynet:hotpath
func gemmMicro4x16AVX2(kc int, ap, bp []float32, tile *[gemmMR * gemmNR]float32)

// gemmMicro4x16AVX512 is gemmMicro4x16AVX2 with one ZMM accumulator per
// tile row: the same multiplies and adds, the same bits.
//
//go:noescape
//skynet:hotpath
func gemmMicro4x16AVX512(kc int, ap, bp []float32, tile *[gemmMR * gemmNR]float32)

// gemmTile4x16AVX512 is gemmMicro4x16AVX512 followed by storeTileAVX2's
// store, from the accumulators: the same bits.
//
//go:noescape
//skynet:hotpath
func gemmTile4x16AVX512(kc int, ap, bp, c *float32, ldc int, bias, gamma, mean, inv, beta *float32, hi float32, mode int)

// i8Micro4x16AVX2 computes one 4×16 int8→int32 tile over pair-packed
// panels: per k pair it sign-extends the B group to words in two YMM
// halves, broadcasts each row's int16 A pair (VPBROADCASTD), and VPMADDWD
// forms the two-step dot products, accumulated exactly with VPADDD. (The
// VPMADDUBSW byte idiom is not used: its int16 sums can saturate.)
//
//go:noescape
//skynet:hotpath
func i8Micro4x16AVX2(kp int, ap []int16, bp []int8, tile *[i8MR * i8NR]int32)

// i8Micro4x16VNNI is i8Micro4x16AVX2 on ZMM: each row's VPDPWSSD (the
// non-saturating form) takes its A pair as an embedded broadcast; even and
// odd k pairs accumulate apart, to hide its latency, and are summed at the
// end — integer sums, so the same bits.
//
//go:noescape
//skynet:hotpath
func i8Micro4x16VNNI(kp int, ap []int16, bp []int8, tile *[i8MR * i8NR]int32)

// nativeKernels reports the assembly kernels this build and CPU support;
// nil entries mean none. kernel.go dispatches on the result.
func nativeKernels() (avx512, avx2 gemmMicroFunc, i8AVX2, i8VNNI i8MicroFunc, tile512 gemmTileFunc) {
	if !cpufeat.AVX2 {
		return nil, nil, nil, nil, nil
	}
	if cpufeat.AVX512 {
		avx512, tile512 = gemmMicro4x16AVX512, gemmTile4x16AVX512
	}
	if cpufeat.AVX512VNNI {
		i8VNNI = i8Micro4x16VNNI
	}
	return avx512, gemmMicro4x16AVX2, i8Micro4x16AVX2, i8VNNI, tile512
}
