//go:build amd64 && !purego

#include "textflag.h"

// AVX2 micro-kernels for the blocked GEMMs. Register plan (float kernel):
//
//	CX  remaining k steps                    SI  packed A panel cursor
//	DI  packed B panel cursor                DX  output tile
//	Y0-Y7  the eight 8-lane accumulators: tile row r is Y(2r), Y(2r+1)
//	Y8/Y9  the current B row's two halves    Y10-Y15 broadcast/product temporaries
//
// The int8 kernel keeps the same cursors and register plan, with the B words
// of one k pair in Y8/Y9. The float kernel updates each accumulator once per
// k step, preserving the strict per-element k-summation order the
// determinism contract requires; the int8 one once per k pair, exactly. The
// main bodies are unrolled ×2 over k (k pairs) with a single-step tail for
// odd counts.

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

// func gemmMicro4x16AVX2(kc int, ap, bp []float32, tile *[64]float32)
//
// No-FMA: VMULPS then VADDPS, two roundings per multiply-add, bitwise
// identical to the pure-Go reference kernel.
TEXT ·gemmMicro4x16AVX2(SB), NOSPLIT, $0-64
	MOVQ kc+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), DI
	MOVQ tile+56(FP), DX
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

// I8ROW adds a(row)·B to tile row A's two accumulators for the pair's B
// words in Y8/Y9: the row's [a(i,p) a(i,p+1)] int16 pair is one 32-bit
// broadcast load, VPMADDWD forms both two-step dot products.
#define I8ROW(A, ACC0, ACC1, T0, T1) \
	VPBROADCASTD A(SI), T0; \
	VPMADDWD Y8, T0, T1;    \
	VPADDD T1, ACC0, ACC0;  \
	VPMADDWD Y9, T0, T0;    \
	VPADDD T0, ACC1, ACC1

// I8STEP is one k pair: the 32-byte B group at B0(DI) and B1(DI) sign-extended
// to words, the four rows' A pairs at A0..A3(SI).
#define I8STEP(B0, B1, A0, A1, A2, A3) \
	VPMOVSXBW B0(DI), Y8;              \
	VPMOVSXBW B1(DI), Y9;              \
	I8ROW(A0, Y0, Y1, Y10, Y11);       \
	I8ROW(A1, Y2, Y3, Y12, Y13);       \
	I8ROW(A2, Y4, Y5, Y14, Y15);       \
	I8ROW(A3, Y6, Y7, Y10, Y11)

// func i8Micro4x16AVX2(kp int, ap []int16, bp []int8, tile *[64]int32)
//
// Int8 kernel over pair-packed panels: tile row r in Y(2r), Y(2r+1), as in
// the float kernel. Everything is exact integer math: the int16 products
// cannot overflow VPMADDWD's int32 lanes (|a|,|b| ≤ 128 ⇒ |pair sum| ≤
// 2·2¹⁴) and accumulation over kp ≤ i8KC/2 pairs stays far inside int32.
TEXT ·i8Micro4x16AVX2(SB), NOSPLIT, $0-64
	MOVQ kp+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), DI
	MOVQ tile+56(FP), DX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	SUBQ $2, CX
	JLT  i8tail

i8loop2:
	I8STEP(0, 16, 0, 4, 8, 12)
	I8STEP(32, 48, 16, 20, 24, 28)
	ADDQ $32, SI
	ADDQ $64, DI
	SUBQ $2, CX
	JGE  i8loop2

i8tail:
	ADDQ $1, CX
	JLT  i8done
	I8STEP(0, 16, 0, 4, 8, 12)

i8done:
	VMOVDQU Y0, 0(DX)
	VMOVDQU Y1, 32(DX)
	VMOVDQU Y2, 64(DX)
	VMOVDQU Y3, 96(DX)
	VMOVDQU Y4, 128(DX)
	VMOVDQU Y5, 160(DX)
	VMOVDQU Y6, 192(DX)
	VMOVDQU Y7, 224(DX)
	VZEROUPPER
	RET
