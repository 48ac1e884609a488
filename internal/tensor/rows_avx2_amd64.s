//go:build amd64 && !purego

#include "textflag.h"

// AVX2 row kernels: the vector halves of the row loops in rows.go,
// internal/nn and internal/quant. Every routine takes an element count that
// is a positive multiple of its lane count and touches exactly those
// elements. Operand order matters wherever a NaN or a signed zero can reach
// a VMAXPS/VMINPS — both return their SECOND source (the first operand in Go
// syntax) when either source is NaN or both are zero — and is chosen per
// routine so that the result is the Go loop's, bit for bit. Multiplies and
// adds are separate, separately rounded instructions in the Go loop's order;
// there is no FMA here.

DATA absMask<>+0(SB)/4, $0x7fffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $4
DATA maxF32<>+0(SB)/4, $0x7f7fffff
GLOBL maxF32<>(SB), RODATA|NOPTR, $4
DATA zeros4<>+0(SB)/8, $0
DATA zeros4<>+8(SB)/8, $0
GLOBL zeros4<>(SB), RODATA|NOPTR, $16
DATA code127<>+0(SB)/8, $127.0
GLOBL code127<>(SB), RODATA|NOPTR, $8
DATA codeM127<>+0(SB)/8, $-127.0
GLOBL codeM127<>(SB), RODATA|NOPTR, $8

// func maxAbsAVX2(p *float32, n int) float32
//
// |v| is v with the sign bit cleared; a lane that is not ≤ MaxFloat32 (±Inf,
// NaN) is zeroed by its compare mask; what is left is finite and ≥ +0, so
// the maximum is the same in any order and two accumulators may share it.
TEXT ·maxAbsAVX2(SB), NOSPLIT, $0-20
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	VBROADCASTSS absMask<>(SB), Y14
	VBROADCASTSS maxF32<>(SB), Y15
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	SUBQ $16, CX
	JLT  maxabs8

maxabs16:
	VANDPS (SI), Y14, Y2
	VANDPS 32(SI), Y14, Y3
	VCMPPS $2, Y15, Y2, Y4
	VCMPPS $2, Y15, Y3, Y5
	VANDPS Y4, Y2, Y2
	VANDPS Y5, Y3, Y3
	VMAXPS Y2, Y0, Y0
	VMAXPS Y3, Y1, Y1
	ADDQ $64, SI
	SUBQ $16, CX
	JGE  maxabs16

maxabs8:
	ADDQ $8, CX
	JLT  maxabsdone
	VANDPS (SI), Y14, Y2
	VCMPPS $2, Y15, Y2, Y4
	VANDPS Y4, Y2, Y2
	VMAXPS Y2, Y0, Y0

maxabsdone:
	VMAXPS Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS X1, X0, X0
	VPSHUFD $0x4e, X0, X1
	VMAXPS X1, X0, X0
	VPSHUFD $0xb1, X0, X1
	VMAXPS X1, X0, X0
	VMOVSS X0, ret+16(FP)
	VZEROUPPER
	RET

// The row tail, on one vector. Register plan of every routine that uses
// these macros:
//
//	Y8 gamma  Y9 mean  Y10 inv  Y11 beta     (BNEval's operands, broadcast)
//	Y12 hi    Y13 +0   Y14 0x7fffffff        (ReLUClamp's)
//
// BNEVAL is gamma*(x-mean)*inv + beta as Go evaluates it: sub, mul, mul, add.
#define BNEVAL(V) \
	VSUBPS Y9, V, V;  \
	VMULPS V, Y8, V;  \
	VMULPS Y10, V, V; \
	VADDPS Y11, V, V

// RELUCLAMP is min(max(x, 0), hi) as Go's built-ins define it on amd64.
// max(x, 0): VMAXPS with x as the second source keeps a NaN's payload and
// returns x for x = ±0; Go's max clears the sign of both (its lowering is
// -min(-x, -0) with the two MINSS results ORed), and nothing else that comes
// out is negative, so clearing the sign bit finishes it. min(m, hi) is that
// lowering itself: t = MIN(m, hi) is hi when m is NaN, u = MIN(t, m) is then
// the NaN, and u|t is Go's answer in every case.
#define RELUCLAMP(V, T) \
	VMAXPS V, Y13, V; \
	VANDPS Y14, V, V; \
	VMINPS Y12, V, T; \
	VMINPS V, T, V;   \
	VORPS  T, V, V

// func rowTailAVX2(dst, src *float32, n int, gamma, mean, inv, beta, hi float32, mode int)
TEXT ·rowTailAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ mode+48(FP), AX
	VBROADCASTSS gamma+24(FP), Y8
	VBROADCASTSS mean+28(FP), Y9
	VBROADCASTSS inv+32(FP), Y10
	VBROADCASTSS beta+36(FP), Y11
	VBROADCASTSS hi+40(FP), Y12
	VXORPS Y13, Y13, Y13
	VBROADCASTSS absMask<>(SB), Y14
	CMPQ AX, $1
	JEQ  tailbn
	CMPQ AX, $2
	JEQ  tailrelu

tailboth:
	VMOVUPS (SI), Y0
	BNEVAL(Y0)
	RELUCLAMP(Y0, Y1)
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  tailboth
	VZEROUPPER
	RET

tailbn:
	VMOVUPS (SI), Y0
	BNEVAL(Y0)
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  tailbn
	VZEROUPPER
	RET

tailrelu:
	VMOVUPS (SI), Y0
	RELUCLAMP(Y0, Y1)
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  tailrelu
	VZEROUPPER
	RET

// func axpyAVX2(c, b *float32, n int, a float32)
//
// c[j] += a*b[j]: the product rounded, then the sum.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-28
	MOVQ c+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS a+24(FP), Y8

axpyloop:
	VMULPS (SI), Y8, Y0
	VADDPS (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  axpyloop
	VZEROUPPER
	RET

// func storeTileAVX2(c *float32, ldc int, tile *[32]float32, bias, gamma, mean, inv, beta *float32, hi float32, mode int)
//
// One 4×8 tile through the float GEMM's store: per row, tile + bias (or
// C + tile under tailAcc), then the mode's tail with that row's statistics.
// BX walks the per-row operands, DI the rows of C.
TEXT ·storeTileAVX2(SB), NOSPLIT, $0-80
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	SHLQ $2, R8
	MOVQ tile+16(FP), SI
	MOVQ bias+24(FP), R9
	MOVQ gamma+32(FP), R10
	MOVQ mean+40(FP), R11
	MOVQ inv+48(FP), R12
	MOVQ beta+56(FP), R13
	VBROADCASTSS hi+64(FP), Y12
	MOVQ mode+72(FP), AX
	VXORPS Y13, Y13, Y13
	VBROADCASTSS absMask<>(SB), Y14
	TESTQ R9, R9
	JNZ  stbias
	LEAQ zeros4<>(SB), R9

stbias:
	XORQ BX, BX

strow:
	VMOVUPS (SI), Y0
	TESTQ $4, AX
	JZ   stover
	VADDPS (DI), Y0, Y0
	JMP  sttail

stover:
	VBROADCASTSS (R9)(BX*1), Y1
	VADDPS Y1, Y0, Y0

sttail:
	TESTQ $1, AX
	JZ   strelu
	VBROADCASTSS (R10)(BX*1), Y8
	VBROADCASTSS (R11)(BX*1), Y9
	VBROADCASTSS (R12)(BX*1), Y10
	VBROADCASTSS (R13)(BX*1), Y11
	BNEVAL(Y0)

strelu:
	TESTQ $2, AX
	JZ   ststore
	RELUCLAMP(Y0, Y1)

ststore:
	VMOVUPS Y0, (DI)
	ADDQ R8, DI
	ADDQ $32, SI
	ADDQ $4, BX
	CMPQ BX, $16
	JNE  strow
	VZEROUPPER
	RET

// Depth-wise 3-wide rows. Register plan (float and code routines alike):
//
//	DI outputs   CX outputs left   SI, R9, R10 the kernel rows' input cursors
//	Y0-Y8 the taps, broadcast, in (ky, kx) order   Y9 bias   Y10 the sums
//
// One block is eight outputs: the sum starts from the bias and takes the
// taps of each kernel row in turn, product rounded, then added.
#define DWTAPS(P, K0, K1, K2) \
	VMULPS 0(P), K0, Y11; \
	VADDPS Y11, Y10, Y10; \
	VMULPS 4(P), K1, Y11; \
	VADDPS Y11, Y10, Y10; \
	VMULPS 8(P), K2, Y11; \
	VADDPS Y11, Y10, Y10

// func dw3RowAVX2(o *float32, n int, in *float32, w int, ker *float32, nky int, bias float32)
TEXT ·dw3RowAVX2(SB), NOSPLIT, $0-52
	MOVQ o+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ in+16(FP), SI
	MOVQ w+24(FP), R8
	SHLQ $2, R8
	MOVQ ker+32(FP), R11
	MOVQ nky+40(FP), AX
	VBROADCASTSS bias+48(FP), Y9
	LEAQ (SI)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	VBROADCASTSS 0(R11), Y0
	VBROADCASTSS 4(R11), Y1
	VBROADCASTSS 8(R11), Y2
	CMPQ AX, $1
	JEQ  dwrows1
	VBROADCASTSS 12(R11), Y3
	VBROADCASTSS 16(R11), Y4
	VBROADCASTSS 20(R11), Y5
	CMPQ AX, $2
	JEQ  dwrows2
	VBROADCASTSS 24(R11), Y6
	VBROADCASTSS 28(R11), Y7
	VBROADCASTSS 32(R11), Y8

dwrows3:
	VMOVAPS Y9, Y10
	DWTAPS(SI, Y0, Y1, Y2)
	DWTAPS(R9, Y3, Y4, Y5)
	DWTAPS(R10, Y6, Y7, Y8)
	VMOVUPS Y10, (DI)
	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  dwrows3
	VZEROUPPER
	RET

dwrows2:
	VMOVAPS Y9, Y10
	DWTAPS(SI, Y0, Y1, Y2)
	DWTAPS(R9, Y3, Y4, Y5)
	VMOVUPS Y10, (DI)
	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  dwrows2
	VZEROUPPER
	RET

dwrows1:
	VMOVAPS Y9, Y10
	DWTAPS(SI, Y0, Y1, Y2)
	VMOVUPS Y10, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  dwrows1
	VZEROUPPER
	RET

// func pool2AVX2(dst, r0, r1 *float32, n int)
//
// Sixteen columns of each row give eight outputs. VSHUFPS splits a row's two
// vectors into its even and its odd columns (in the order 0 1 4 5 2 3 6 7 of
// the outputs, the same for all four, put right by one VPERMPD at the end).
// The window's running best starts as its first element and each later one
// goes in as VMAXPS's FIRST source: the best is kept unless the candidate is
// strictly greater, a NaN best stays, a NaN candidate is skipped and a zero
// of either sign does not replace a zero.
TEXT ·pool2AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ r0+8(FP), SI
	MOVQ r1+16(FP), DX
	MOVQ n+24(FP), CX

pool2loop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS (DX), Y2
	VMOVUPS 32(DX), Y3
	VSHUFPS $0x88, Y1, Y0, Y4
	VSHUFPS $0xdd, Y1, Y0, Y5
	VSHUFPS $0x88, Y3, Y2, Y6
	VSHUFPS $0xdd, Y3, Y2, Y7
	VMAXPS Y4, Y5, Y4
	VMAXPS Y4, Y6, Y4
	VMAXPS Y4, Y7, Y4
	VPERMPD $0xd8, Y4, Y4
	VMOVUPS Y4, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  pool2loop
	VZEROUPPER
	RET

// The code routines. Integer multiplies and adds are exact (and wrap as Go's
// int32 does), so only the order of the float64 requantise matters.

#define DWTAPSI(P, K0, K1, K2) \
	VPMOVSXBD 0(P), Y11;   \
	VPMULLD K0, Y11, Y11;  \
	VPADDD Y11, Y10, Y10;  \
	VPMOVSXBD 1(P), Y11;   \
	VPMULLD K1, Y11, Y11;  \
	VPADDD Y11, Y10, Y10;  \
	VPMOVSXBD 2(P), Y11;   \
	VPMULLD K2, Y11, Y11;  \
	VPADDD Y11, Y10, Y10

// TAPI broadcasts the sign-extended code at off(R11) into Y.
#define TAPI(off, XR, YR) \
	MOVBQSX off(R11), BX; \
	VMOVQ BX, XR;         \
	VPBROADCASTD XR, YR

// func dw3RowI8AVX2(o *int32, n int, in *int8, w int, ker *int8, nky int, bias int32)
TEXT ·dw3RowI8AVX2(SB), NOSPLIT, $0-52
	MOVQ o+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ in+16(FP), SI
	MOVQ w+24(FP), R8
	MOVQ ker+32(FP), R11
	MOVQ nky+40(FP), AX
	MOVL bias+48(FP), BX
	VMOVQ BX, X9
	VPBROADCASTD X9, Y9
	LEAQ (SI)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	TAPI(0, X0, Y0)
	TAPI(1, X1, Y1)
	TAPI(2, X2, Y2)
	CMPQ AX, $1
	JEQ  dwi8rows1
	TAPI(3, X3, Y3)
	TAPI(4, X4, Y4)
	TAPI(5, X5, Y5)
	CMPQ AX, $2
	JEQ  dwi8rows2
	TAPI(6, X6, Y6)
	TAPI(7, X7, Y7)
	TAPI(8, X8, Y8)

dwi8rows3:
	VMOVDQA Y9, Y10
	DWTAPSI(SI, Y0, Y1, Y2)
	DWTAPSI(R9, Y3, Y4, Y5)
	DWTAPSI(R10, Y6, Y7, Y8)
	VMOVDQU Y10, (DI)
	ADDQ $8, SI
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  dwi8rows3
	VZEROUPPER
	RET

dwi8rows2:
	VMOVDQA Y9, Y10
	DWTAPSI(SI, Y0, Y1, Y2)
	DWTAPSI(R9, Y3, Y4, Y5)
	VMOVDQU Y10, (DI)
	ADDQ $8, SI
	ADDQ $8, R9
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  dwi8rows2
	VZEROUPPER
	RET

dwi8rows1:
	VMOVDQA Y9, Y10
	DWTAPSI(SI, Y0, Y1, Y2)
	VMOVDQU Y10, (DI)
	ADDQ $8, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  dwi8rows1
	VZEROUPPER
	RET

// func pool2I8AVX2(dst, r0, r1 *int8, n int)
//
// Thirty-two columns of each row give sixteen outputs: the rows' byte-wise
// maximum, then each even byte against the odd byte beside it (shifted down
// within its 16-bit word), the even bytes masked out and packed — they are
// words in 0..255, which the unsigned-saturating pack copies bit for bit.
TEXT ·pool2I8AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ r0+8(FP), SI
	MOVQ r1+16(FP), DX
	MOVQ n+24(FP), CX
	VPCMPEQW Y15, Y15, Y15
	VPSRLW $8, Y15, Y15

pool2i8loop:
	VMOVDQU (SI), Y0
	VPMAXSB (DX), Y0, Y0
	VPSRLW $8, Y0, Y1
	VPMAXSB Y1, Y0, Y0
	VPAND Y15, Y0, Y0
	VPACKUSWB Y0, Y0, Y0
	VPERMQ $0x08, Y0, Y0
	VMOVDQU X0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $16, DI
	SUBQ $16, CX
	JNZ  pool2i8loop
	VZEROUPPER
	RET

// REQUANT8 is RequantizeRNE on the eight int32 of Y0, leaving eight codes in
// the low half of X0. Y9 is float64(mult), Y10 and Y11 float64 lo and hi.
// int32 → float64 is exact and the product rounds once, as Go's does; the
// clamp comes before the conversion — rounding is monotonic and lo, hi are
// integers, so clamp-then-round equals RequantizeRNE's round-then-clamp, its
// ±2⁵¹ guards included — with the product as the FIRST source of the VMAXPD,
// so that a NaN (0·Inf) becomes lo as int64(NaN) does in Go; VCVTPD2DQ then
// rounds to nearest even under the default MXCSR, and the two packs find
// every value already inside int8.
#define REQUANT8 \
	VEXTRACTI128 $1, Y0, X1; \
	VCVTDQ2PD X0, Y2;        \
	VCVTDQ2PD X1, Y3;        \
	VMULPD Y9, Y2, Y2;       \
	VMULPD Y9, Y3, Y3;       \
	VMAXPD Y10, Y2, Y2;      \
	VMAXPD Y10, Y3, Y3;      \
	VMINPD Y11, Y2, Y2;      \
	VMINPD Y11, Y3, Y3;      \
	VCVTPD2DQY Y2, X2;       \
	VCVTPD2DQY Y3, X3;       \
	VPACKSSDW X3, X2, X0;    \
	VPACKSSWB X0, X0, X0

// BOUNDS broadcasts the int8 bounds in AX and BX as float64 into Y10 and Y11;
// MULT64 the float32 multiplier at M as float64 into Y9.
#define BOUNDS \
	VCVTSI2SDQ AX, X10, X10; \
	VBROADCASTSD X10, Y10;   \
	VCVTSI2SDQ BX, X11, X11; \
	VBROADCASTSD X11, Y11

#define MULT64(M) \
	VMOVSS M, X9;         \
	VCVTSS2SD X9, X9, X9; \
	VBROADCASTSD X9, Y9

// func requantRowAVX2(dst *int8, acc *int32, n int, bias int32, mult float32, lo, hi int8)
TEXT ·requantRowAVX2(SB), NOSPLIT, $0-34
	MOVQ dst+0(FP), DI
	MOVQ acc+8(FP), SI
	MOVQ n+16(FP), CX
	MOVL bias+24(FP), BX
	VMOVQ BX, X8
	VPBROADCASTD X8, Y8
	MULT64(mult+28(FP))
	MOVBQSX lo+32(FP), AX
	MOVBQSX hi+33(FP), BX
	BOUNDS

requantloop:
	VPADDD (SI), Y8, Y0
	REQUANT8
	VMOVQ X0, (DI)
	ADDQ $32, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JNZ  requantloop
	VZEROUPPER
	RET

// func rescaleAVX2(dst, src *int8, n int, mult float32, lo, hi int8)
TEXT ·rescaleAVX2(SB), NOSPLIT, $0-30
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MULT64(mult+24(FP))
	MOVBQSX lo+28(FP), AX
	MOVBQSX hi+29(FP), BX
	BOUNDS

rescaleloop:
	VPMOVSXBD (SI), Y0
	REQUANT8
	VMOVQ X0, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JNZ  rescaleloop
	VZEROUPPER
	RET

// func storeTileI8AVX2(dst *int8, ldc int, tile *[32]int32, bias *int32, mult *float32, lo, hi int8)
TEXT ·storeTileI8AVX2(SB), NOSPLIT, $0-42
	MOVQ dst+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ tile+16(FP), SI
	MOVQ bias+24(FP), R9
	MOVQ mult+32(FP), R10
	MOVBQSX lo+40(FP), AX
	MOVBQSX hi+41(FP), BX
	BOUNDS
	TESTQ R9, R9
	JNZ  sti8bias
	LEAQ zeros4<>(SB), R9

sti8bias:
	XORQ AX, AX

sti8row:
	VPBROADCASTD (R9)(AX*1), Y0
	VPADDD (SI), Y0, Y0
	MULT64((R10)(AX*1))
	REQUANT8
	VMOVQ X0, (DI)
	ADDQ R8, DI
	ADDQ $32, SI
	ADDQ $4, AX
	CMPQ AX, $16
	JNE  sti8row
	VZEROUPPER
	RET

// func quantizeAVX2(dst *int8, src *float32, n int, inv float64)
//
// float32 → float64 is exact and the product rounds once. A NaN product is
// zeroed first (quantizeInto's NaN → 0); ±Inf and everything else clamp to
// ±127 before the round-to-nearest-even conversion, as in REQUANT8.
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD inv+24(FP), Y9
	VBROADCASTSD codeM127<>(SB), Y10
	VBROADCASTSD code127<>(SB), Y11

quantloop:
	VCVTPS2PD (SI), Y2
	VCVTPS2PD 16(SI), Y3
	VMULPD Y9, Y2, Y2
	VMULPD Y9, Y3, Y3
	VCMPPD $3, Y2, Y2, Y4
	VCMPPD $3, Y3, Y3, Y5
	VANDNPD Y2, Y4, Y2
	VANDNPD Y3, Y5, Y3
	VMAXPD Y10, Y2, Y2
	VMAXPD Y10, Y3, Y3
	VMINPD Y11, Y2, Y2
	VMINPD Y11, Y3, Y3
	VCVTPD2DQY Y2, X2
	VCVTPD2DQY Y3, X3
	VPACKSSDW X3, X2, X0
	VPACKSSWB X0, X0, X0
	VMOVQ X0, (DI)
	ADDQ $32, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JNZ  quantloop
	VZEROUPPER
	RET

// func dequantizeAVX2(dst *float32, src *int8, n int, scale float32)
TEXT ·dequantizeAVX2(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS scale+24(FP), Y8

dequantloop:
	VPMOVSXBD (SI), Y0
	VCVTDQ2PS Y0, Y0
	VMULPS Y8, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $8, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  dequantloop
	VZEROUPPER
	RET
