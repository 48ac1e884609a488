//go:build amd64 && !purego

#include "textflag.h"

// AVX2 micro-kernels for the blocked GEMMs. Register plan (all kernels):
//
//	CX  remaining k steps (pairs for int8)   SI  packed A panel cursor
//	DI  packed B panel cursor                DX  output tile
//	Y0-Y3  the four 8-lane row accumulators
//	Y4/Y9  the current (and next, in the unrolled body) B vector
//	Y5-Y8  per-row broadcast/product temporaries
//
// The float32 kernels keep one accumulator per tile row and update it once
// per k step, preserving the strict per-element k-summation order the
// determinism contract requires. The main bodies are unrolled ×2 over k
// with a single-step tail for odd counts.

// func gemmMicro4x8AVX2(kc int, ap, bp *float32, tile *[32]float32)
//
// No-FMA variant: VMULPS then VADDPS, two roundings per multiply-add,
// bitwise identical to the pure-Go reference kernel.
TEXT ·gemmMicro4x8AVX2(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ tile+24(FP), DX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	SUBQ $2, CX
	JLT  f32tail

f32loop2:
	VMOVUPS (DI), Y4
	VBROADCASTSS 0(SI), Y5
	VMULPS Y4, Y5, Y5
	VADDPS Y5, Y0, Y0
	VBROADCASTSS 4(SI), Y6
	VMULPS Y4, Y6, Y6
	VADDPS Y6, Y1, Y1
	VBROADCASTSS 8(SI), Y7
	VMULPS Y4, Y7, Y7
	VADDPS Y7, Y2, Y2
	VBROADCASTSS 12(SI), Y8
	VMULPS Y4, Y8, Y8
	VADDPS Y8, Y3, Y3
	VMOVUPS 32(DI), Y9
	VBROADCASTSS 16(SI), Y5
	VMULPS Y9, Y5, Y5
	VADDPS Y5, Y0, Y0
	VBROADCASTSS 20(SI), Y6
	VMULPS Y9, Y6, Y6
	VADDPS Y6, Y1, Y1
	VBROADCASTSS 24(SI), Y7
	VMULPS Y9, Y7, Y7
	VADDPS Y7, Y2, Y2
	VBROADCASTSS 28(SI), Y8
	VMULPS Y9, Y8, Y8
	VADDPS Y8, Y3, Y3
	ADDQ $32, SI
	ADDQ $64, DI
	SUBQ $2, CX
	JGE  f32loop2

f32tail:
	ADDQ $1, CX
	JLT  f32done
	VMOVUPS (DI), Y4
	VBROADCASTSS 0(SI), Y5
	VMULPS Y4, Y5, Y5
	VADDPS Y5, Y0, Y0
	VBROADCASTSS 4(SI), Y6
	VMULPS Y4, Y6, Y6
	VADDPS Y6, Y1, Y1
	VBROADCASTSS 8(SI), Y7
	VMULPS Y4, Y7, Y7
	VADDPS Y7, Y2, Y2
	VBROADCASTSS 12(SI), Y8
	VMULPS Y4, Y8, Y8
	VADDPS Y8, Y3, Y3

f32done:
	VMOVUPS Y0, 0(DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
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
