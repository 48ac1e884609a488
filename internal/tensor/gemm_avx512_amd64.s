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

DATA tileZeros<>+0(SB)/8, $0
DATA tileZeros<>+8(SB)/8, $0
GLOBL tileZeros<>(SB), RODATA|NOPTR, $16
DATA tileAbs<>+0(SB)/4, $0x7fffffff
GLOBL tileAbs<>(SB), RODATA|NOPTR, $4

// func gemmTile4x16AVX512(kc int, ap, bp, c *float32, ldc int, bias, gamma, mean, inv, beta *float32, hi float32, mode int)
//
// gemmMicro4x16AVX512's k loop, then storeTileAVX2's store of each row from
// its accumulator: Z0 is stored and Z1–Z3 move up, four times. The store's
// operations and operand orders are the AVX2 routine's (rows_avx2_amd64.s,
// BNEVAL and RELUCLAMP), on sixteen lanes: tile + bias, or tile + C under
// tailAcc; then gamma·(x−mean)·inv + beta; then min(max(x, 0), hi) as Go
// computes it. VPANDD and VPORD are VANDPS and VORPS without AVX512DQ.
TEXT ·gemmTile4x16AVX512(SB), NOSPLIT, $0-96
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	SUBQ $2, CX
	JLT  t16tail

t16loop2:
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
	JGE  t16loop2

t16tail:
	ADDQ $1, CX
	JLT  t16store
	VMOVUPS 0(DI), Z4
	Z16ROW(0, Z4, Z0, Z5)
	Z16ROW(4, Z4, Z1, Z6)
	Z16ROW(8, Z4, Z2, Z7)
	Z16ROW(12, Z4, Z3, Z8)

t16store:
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8
	MOVQ bias+40(FP), R9
	MOVQ gamma+48(FP), R10
	MOVQ mean+56(FP), R11
	MOVQ inv+64(FP), R12
	MOVQ beta+72(FP), R13
	VBROADCASTSS hi+80(FP), Z14
	MOVQ mode+88(FP), AX
	VPXORD Z15, Z15, Z15
	VBROADCASTSS tileAbs<>(SB), Z16
	TESTQ R9, R9
	JNZ  t16bias
	LEAQ tileZeros<>(SB), R9

t16bias:
	XORQ BX, BX

t16row:
	TESTQ $4, AX
	JZ   t16over
	VADDPS (DI), Z0, Z0
	JMP  t16bn

t16over:
	VBROADCASTSS (R9)(BX*1), Z17
	VADDPS Z17, Z0, Z0

t16bn:
	TESTQ $1, AX
	JZ   t16relu
	VBROADCASTSS (R10)(BX*1), Z18
	VBROADCASTSS (R11)(BX*1), Z19
	VBROADCASTSS (R12)(BX*1), Z20
	VBROADCASTSS (R13)(BX*1), Z21
	VSUBPS Z19, Z0, Z0
	VMULPS Z0, Z18, Z0
	VMULPS Z20, Z0, Z0
	VADDPS Z21, Z0, Z0

t16relu:
	TESTQ $2, AX
	JZ   t16put
	VMAXPS Z0, Z15, Z0
	VPANDD Z16, Z0, Z0
	VMINPS Z14, Z0, Z5
	VMINPS Z0, Z5, Z0
	VPORD  Z5, Z0, Z0

t16put:
	VMOVUPS Z0, (DI)
	VMOVAPS Z1, Z0
	VMOVAPS Z2, Z1
	VMOVAPS Z3, Z2
	ADDQ R8, DI
	ADDQ $4, BX
	CMPQ BX, $16
	JNE  t16row
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
