//go:build amd64 && !purego

#include "textflag.h"

// AVX-512F micro-kernel for the blocked float32 GEMM. Register plan:
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

// func gemmMicro4x16AVX512(kc int, ap, bp *float32, tile *[64]float32)
TEXT ·gemmMicro4x16AVX512(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ tile+24(FP), DX
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
