//go:build amd64 && !purego

#include "textflag.h"

// AVX2 micro-kernels for the blocked GEMMs. Register plan (float kernel):
//
//	CX  remaining k steps                    SI  packed A panel cursor
//	DI  packed B panel cursor                DX  output tile
//	Y0-Y7  the eight 8-lane accumulators: tile row r is Y(2r), Y(2r+1)
//	Y8/Y9  the current B row's two halves    Y10-Y15 broadcast/product temporaries
//
// The int8 kernel keeps the same cursors, its four row accumulators in
// Y0-Y3 and its B vector in Y4/Y9. Every kernel updates each accumulator
// once per k step, preserving the strict per-element k-summation order the
// determinism contract requires. The main bodies are unrolled ×2 over k
// with a single-step tail for odd counts.

// F32ROW updates tile row A's two accumulators with a(row)·b for the B row
// in Y8/Y9: the product rounded (VMULPS), then the sum (VADDPS), never FMA.
#define F32ROW(A, ACC0, ACC1, T0, T1) \
	VBROADCASTSS A(SI), T0; \
	VMULPS Y8, T0, T1;      \
	VADDPS T1, ACC0, ACC0;  \
	VMULPS Y9, T0, T0;      \
	VADDPS T0, ACC1, ACC1

// F32STEP is one k step: the B row at B(DI), the four A values at A0..A3(SI).
#define F32STEP(B0, B1, A0, A1, A2, A3) \
	VMOVUPS B0(DI), Y8;                 \
	VMOVUPS B1(DI), Y9;                 \
	F32ROW(A0, Y0, Y1, Y10, Y11);       \
	F32ROW(A1, Y2, Y3, Y12, Y13);       \
	F32ROW(A2, Y4, Y5, Y14, Y15);       \
	F32ROW(A3, Y6, Y7, Y10, Y11)

// func gemmMicro4x16AVX2(kc int, ap, bp *float32, tile *[64]float32)
//
// No-FMA: VMULPS then VADDPS, two roundings per multiply-add, bitwise
// identical to the pure-Go reference kernel.
TEXT ·gemmMicro4x16AVX2(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ tile+24(FP), DX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	SUBQ $2, CX
	JLT  f32tail

f32loop2:
	F32STEP(0, 32, 0, 4, 8, 12)
	F32STEP(64, 96, 16, 20, 24, 28)
	ADDQ $32, SI
	ADDQ $128, DI
	SUBQ $2, CX
	JGE  f32loop2

f32tail:
	ADDQ $1, CX
	JLT  f32done
	F32STEP(0, 32, 0, 4, 8, 12)

f32done:
	VMOVUPS Y0, 0(DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	VMOVUPS Y4, 128(DX)
	VMOVUPS Y5, 160(DX)
	VMOVUPS Y6, 192(DX)
	VMOVUPS Y7, 224(DX)
	VZEROUPPER
	RET

// func i8Micro4x8AVX2(kp int, ap, bp *int8, tile *[32]int32)
//
// Int8 kernel over pair-packed panels. Per k pair: one VPMOVSXBW turns
// the 16-byte B group [b(p,j) b(p+1,j)]×8 into words; per row, a
// VPBROADCASTW of the [a(i,p) a(i,p+1)] byte pair is sign-extended the
// same way, then VPMADDWD computes a(i,p)·b(p,j) + a(i,p+1)·b(p+1,j) in
// int32 lanes and VPADDD accumulates. Everything is exact integer math.
// The int16 products cannot overflow VPMADDWD's int32 lanes (|a|,|b| ≤
// 128 ⇒ |pair sum| ≤ 2·2¹⁴) and accumulation over kp ≤ 1024 pairs stays
// far inside int32.
TEXT ·i8Micro4x8AVX2(SB), NOSPLIT, $0-32
	MOVQ kp+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ tile+24(FP), DX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	SUBQ $2, CX
	JLT  i8tail

i8loop2:
	VPMOVSXBW (DI), Y4
	VPBROADCASTW 0(SI), X5
	VPMOVSXBW X5, Y5
	VPMADDWD Y4, Y5, Y5
	VPADDD Y5, Y0, Y0
	VPBROADCASTW 2(SI), X6
	VPMOVSXBW X6, Y6
	VPMADDWD Y4, Y6, Y6
	VPADDD Y6, Y1, Y1
	VPBROADCASTW 4(SI), X7
	VPMOVSXBW X7, Y7
	VPMADDWD Y4, Y7, Y7
	VPADDD Y7, Y2, Y2
	VPBROADCASTW 6(SI), X8
	VPMOVSXBW X8, Y8
	VPMADDWD Y4, Y8, Y8
	VPADDD Y8, Y3, Y3
	VPMOVSXBW 16(DI), Y9
	VPBROADCASTW 8(SI), X5
	VPMOVSXBW X5, Y5
	VPMADDWD Y9, Y5, Y5
	VPADDD Y5, Y0, Y0
	VPBROADCASTW 10(SI), X6
	VPMOVSXBW X6, Y6
	VPMADDWD Y9, Y6, Y6
	VPADDD Y6, Y1, Y1
	VPBROADCASTW 12(SI), X7
	VPMOVSXBW X7, Y7
	VPMADDWD Y9, Y7, Y7
	VPADDD Y7, Y2, Y2
	VPBROADCASTW 14(SI), X8
	VPMOVSXBW X8, Y8
	VPMADDWD Y9, Y8, Y8
	VPADDD Y8, Y3, Y3
	ADDQ $16, SI
	ADDQ $32, DI
	SUBQ $2, CX
	JGE  i8loop2

i8tail:
	ADDQ $1, CX
	JLT  i8done
	VPMOVSXBW (DI), Y4
	VPBROADCASTW 0(SI), X5
	VPMOVSXBW X5, Y5
	VPMADDWD Y4, Y5, Y5
	VPADDD Y5, Y0, Y0
	VPBROADCASTW 2(SI), X6
	VPMOVSXBW X6, Y6
	VPMADDWD Y4, Y6, Y6
	VPADDD Y6, Y1, Y1
	VPBROADCASTW 4(SI), X7
	VPMOVSXBW X7, Y7
	VPMADDWD Y4, Y7, Y7
	VPADDD Y7, Y2, Y2
	VPBROADCASTW 6(SI), X8
	VPMOVSXBW X8, Y8
	VPMADDWD Y4, Y8, Y8
	VPADDD Y8, Y3, Y3

i8done:
	VMOVDQU Y0, 0(DX)
	VMOVDQU Y1, 32(DX)
	VMOVDQU Y2, 64(DX)
	VMOVDQU Y3, 96(DX)
	VZEROUPPER
	RET
