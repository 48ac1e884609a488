//go:build amd64 && !purego

#include "textflag.h"

// AVX-512 micro-kernels: AVX-512F for the blocked float32 GEMM, AVX-512
// VNNI (with BW) for the int8 one. Register plan of the float kernel:
//
//	CX  remaining k steps                    SI  packed A panel cursor
//	DI  packed B panel cursor                DX  output tile
//	Z0-Z3  the four 16-lane row accumulators
//	Z4/Z9  the current (and next, in the unrolled body) B row
//	Z5-Z8, Z10-Z13  per-row broadcast/product temporaries
//
// As in the AVX2 kernel, each accumulator is updated once per k step with a
// separately rounded VMULPS and VADDPS (never FMA), in strict k order, so the
// tile is bitwise the pure-Go reference's. The body is unrolled ×2 over k
// with a single-step tail for odd counts.

// Z16ROW adds a(row)·B to one accumulator: the product rounded, then the sum.
#define Z16ROW(A, B, ACC, T) \
	VBROADCASTSS A(SI), T; \
	VMULPS B, T, T;        \
	VADDPS T, ACC, ACC

// func gemmMicro4x16AVX512(kc int, ap, bp []float32, tile *[64]float32)
TEXT ·gemmMicro4x16AVX512(SB), NOSPLIT, $0-64
	MOVQ kc+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), DI
	MOVQ tile+56(FP), DX
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	SUBQ $2, CX
	JLT  z16tail

z16loop2:
	VMOVUPS 0(DI), Z4
	Z16ROW(0, Z4, Z0, Z5)
	Z16ROW(4, Z4, Z1, Z6)
	Z16ROW(8, Z4, Z2, Z7)
	Z16ROW(12, Z4, Z3, Z8)
	VMOVUPS 64(DI), Z9
	Z16ROW(16, Z9, Z0, Z10)
	Z16ROW(20, Z9, Z1, Z11)
	Z16ROW(24, Z9, Z2, Z12)
	Z16ROW(28, Z9, Z3, Z13)
	ADDQ $32, SI
	ADDQ $128, DI
	SUBQ $2, CX
	JGE  z16loop2

z16tail:
	ADDQ $1, CX
	JLT  z16done
	VMOVUPS 0(DI), Z4
	Z16ROW(0, Z4, Z0, Z5)
	Z16ROW(4, Z4, Z1, Z6)
	Z16ROW(8, Z4, Z2, Z7)
	Z16ROW(12, Z4, Z3, Z8)

z16done:
	VMOVUPS Z0, 0(DX)
	VMOVUPS Z1, 64(DX)
	VMOVUPS Z2, 128(DX)
	VMOVUPS Z3, 192(DX)
	VZEROUPPER
	RET

// I8VNNI adds the four rows' A pairs at A(SI) … A+12(SI), each an embedded
// 32-bit broadcast, times the B words in B to accumulators ACC0..ACC3.
#define I8VNNI(A, B, ACC0, ACC1, ACC2, ACC3) \
	VPDPWSSD.BCST A(SI), B, ACC0;    \
	VPDPWSSD.BCST A+4(SI), B, ACC1;  \
	VPDPWSSD.BCST A+8(SI), B, ACC2;  \
	VPDPWSSD.BCST A+12(SI), B, ACC3

// func i8Micro4x16VNNI(kp int, ap []int16, bp []int8, tile *[64]int32)
//
// Int8 kernel over pair-packed panels. Per k pair one VPMOVSXBW turns the
// 32-byte B group into 32 words, and one VPDPWSSD per row adds a(i,p)·b(p,j)
// + a(i,p+1)·b(p+1,j) into each int32 lane j — non-saturating, exact. Even
// pairs accumulate in Z0-Z3 and odd ones in Z4-Z7, so eight independent
// chains cover the instruction's latency; the two sets are summed before the
// store.
TEXT ·i8Micro4x16VNNI(SB), NOSPLIT, $0-64
	MOVQ kp+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), DI
	MOVQ tile+56(FP), DX
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	SUBQ $2, CX
	JLT  vnnitail

vnniloop2:
	VPMOVSXBW 0(DI), Z8
	VPMOVSXBW 32(DI), Z9
	I8VNNI(0, Z8, Z0, Z1, Z2, Z3)
	I8VNNI(16, Z9, Z4, Z5, Z6, Z7)
	ADDQ $32, SI
	ADDQ $64, DI
	SUBQ $2, CX
	JGE  vnniloop2

vnnitail:
	ADDQ $1, CX
	JLT  vnnidone
	VPMOVSXBW 0(DI), Z8
	I8VNNI(0, Z8, Z0, Z1, Z2, Z3)

vnnidone:
	VPADDD Z4, Z0, Z0
	VPADDD Z5, Z1, Z1
	VPADDD Z6, Z2, Z2
	VPADDD Z7, Z3, Z3
	VMOVDQU32 Z0, 0(DX)
	VMOVDQU32 Z1, 64(DX)
	VMOVDQU32 Z2, 128(DX)
	VMOVDQU32 Z3, 192(DX)
	VZEROUPPER
	RET
