package tensor

import "math"

// This file implements the int8×int8→int32 GEMM that backs the fixed-point
// inference path (§6.4.1 deployment quantization). The organization mirrors
// the float32 kernel in gemm.go — BLIS-style packed panels, an MR×NR
// register-tile micro-kernel — and the column-chunk parallelism is not
// mirrored but shared: int8 calls go through the same task dispatch, worker
// pool and size thresholds as float32 ones (gemmTask in gemm.go). Two things
// are int8-specific:
//
//   - Operands are packed as int8 (4× less traffic than float32 panels) and
//     accumulated in int32. Integer accumulation is exact, so results are
//     bitwise identical for any blocking or worker split by construction.
//   - The k dimension is not blocked. Int8 panels are a quarter the size of
//     float panels, so a full-k NR-column panel of SkyNet's largest layer
//     (k ≤ i8KC) still fits in L1, and keeping the whole dot product in one
//     pass lets the requantize/dequantize epilogue fuse into the tile store
//     instead of needing an int32 staging matrix. Calls with k > i8KC take
//     the naive reference path, which is correct at any size.
//
// Three epilogues are exposed: raw int32 output (Int8GEMMInto), fused
// requantize-to-int8 with per-row (output-channel) scales and clamp
// (Int8GEMMRequantInto) — the steady-state layer-to-layer form — and fused
// dequantize-to-float32 (Int8GEMMDequantInto) for the final layer feeding
// the float detection head.
// The micro-kernel is dispatched through the i8Micro function variable
// (kernel.go): AVX2 assembly where available, the pure-Go reference below
// otherwise. Both consume panels packed in k-PAIRS — for each pair of
// consecutive k indices the packer interleaves the two values of every
// row/column ([a(i,p) a(i,p+1)] per row, [b(p,j) b(p+1,j)] per column,
// zero-padded when k is odd) — which is exactly the operand order of the
// AVX2 16-bit dot-product idiom (VPMOVSXBW + VPMADDWD accumulates two k
// steps per instruction). Integer accumulation is exact, so the pure-Go
// and assembly kernels are bitwise identical by construction.
const (
	i8MR = 4 // micro-tile rows
	// micro-tile cols (one 8-lane YMM vector of int32 per row). Tied to the
	// float tile width because the shared dispatch splits columns on it.
	i8NR = gemmNR
	i8KC = 2048 // max unblocked k: a packed NR panel is i8KC*i8NR = 16 KiB
	i8MC = 64   // m-dimension cache block
	i8NC = 256  // n-dimension cache block (bounds scratch size)
)

// Int8Epilogue describes the fused requantization applied as an int32
// accumulator tile is stored: for row i (the output channel of a lowered
// convolution),
//
//	dst = clamp(roundToEven(float64(acc+Bias[i]) * Mult[i]), Lo, Hi)
//
// Bias is the layer bias (plus any folded batch-norm shift) expressed in
// accumulator units; Mult is the per-channel combined scale
// inScale·weightScale[i]/outScale. Lo/Hi fold the activation clamp (ReLU,
// ReLU6) into the store. A nil Bias means zero.
type Int8Epilogue struct {
	Bias   []int32
	Mult   []float32
	Lo, Hi int8
	// Leaf makes the call run on the calling goroutine alone, as
	// RowProduct.BandOf does a float one: it may then be made from a
	// parallelRange body. Integer sums being exact, no result depends on it.
	Leaf bool
	// Ldc, when larger than n, is the row stride of dst: dst is then a column
	// window of a wider matrix, as RowProduct.Ldc makes a float product's.
	Ldc int
}

// rneMagic shifts a float64 so its ulp is exactly 1: adding and subtracting
// it rounds to the nearest integer under the FPU's default round-to-nearest-
// even, in two adds instead of math.RoundToEven's bit tests. Valid for
// |x| ≤ 2⁵¹ (beyond that the sum's ulp exceeds 1); RequantizeRNE clamps
// such values before they reach the trick.
const rneMagic = 1<<52 + 1<<51

// RequantizeRNE maps one int32 accumulator to an int8 code: round half to
// even of acc·mult, clamped to [lo, hi]. Round-to-nearest-even is the IEEE
// default and keeps requantization bias-free: round-half-up would push every
// tie upward and drift activations positive layer over layer.
//
// This is the inner loop of the requantize epilogue — with the AVX2 GEMM
// kernel it dominates quantized inference, hence the magic-constant
// rounding (bitwise identical to math.RoundToEven on the clamped range).
//
//skynet:hotpath
func RequantizeRNE(acc int32, mult float32, lo, hi int8) int8 {
	x := float64(acc) * float64(mult)
	if x >= 1<<51 {
		return hi // rounds to ≥ 2⁵¹−1, far above any int8 hi
	}
	if x <= -(1 << 51) {
		return lo
	}
	// The rounded value is exactly integral and within int64 range here, so
	// clamping can move to the integer domain, where the compiler lowers
	// both bounds to CMOV — the clamp outcome is data-dependent (ReLU cuts
	// roughly half the accumulators), so branches would mispredict badly.
	ri := int64((x + rneMagic) - rneMagic)
	if ri < int64(lo) {
		ri = int64(lo)
	}
	if ri > int64(hi) {
		ri = int64(hi)
	}
	return int8(ri)
}

// Int8AccumulatorFits states the bound under which "integer accumulation is
// exact" holds for a k-term dot product of int8 codes plus a bias in
// accumulator units:
//
//	k·127² + |bias| ≤ MaxInt32
//
// Codes are clamped to [-127, 127] on both operands, so every product is at
// most 127² and the accumulator, bias included, never leaves int32 while the
// bound holds — for any summation order, hence for every kernel here. The
// AVX2 kernel's VPMADDWD adds two adjacent products into an int32 lane
// before accumulating; 2·127² is far inside int32 (and 16-bit saturation
// only happens for −32768·−32768 pairs, which sign-extended int8 codes
// cannot form), so pair sums add no constraint of their own. Without a bias
// the bound allows k ≤ 133 144. A caller whose layer breaks it (quant.Export
// checks every convolution) must not run that layer on these kernels: the
// int32 sum would wrap silently.
func Int8AccumulatorFits(k int, maxAbsBias float64) bool {
	return float64(k)*127*127+maxAbsBias <= math.MaxInt32
}

// i8Mode selects the epilogue of one int8 GEMM call.
type i8Mode int

const (
	i8ModeInt32   i8Mode = iota // c32 = a·b
	i8ModeRequant               // c8 = requantize(a·b + bias)
	i8ModeDequant               // cf = float32(a·b + bias) · mult
)

// i8gemmCall fully describes one int8 GEMM invocation on raw row-major
// slices: A is [m,k], B is [k,n], and exactly one of c32/c8/cf receives the
// [m,n] result according to mode, with row stride ldc.
type i8gemmCall struct {
	a, b         []int8
	c32          []int32
	c8           []int8
	cf           []float32
	m, n, k, ldc int
	mode         i8Mode
	bias         []int32
	mult         []float32
	lo, hi       int8
	leaf         bool // Int8Epilogue.Leaf
}

// i8Scratch holds the packing buffers of one chunk in flight, allocated once
// at the maximum block size and returned to i8ScratchFree when the chunk
// ends, so steady-state calls allocate nothing. Pair
// packing pads k up to even, and 2·⌈k/2⌉ ≤ i8KC for every accepted k
// (i8KC is even), so the pre-pairing sizes still bound the panels.
type i8Scratch struct {
	ap []int8 // packed A block: MC×KC, MR-row panels, k-pair interleaved
	bp []int8 // packed B block: KC×NC, NR-column panels, k-pair interleaved

	// tile lives here, not on macroKernel's stack, because its address is
	// passed through the i8Micro function variable and an indirect call
	// defeats escape analysis (see gemmScratch.tile).
	tile [i8MR * i8NR]int32
}

func newI8Scratch() *i8Scratch {
	return &i8Scratch{
		ap: make([]int8, i8MC*i8KC),
		bp: make([]int8, i8KC*i8NC),
	}
}

// i8UseNaive reports whether a call should take the naive reference path:
// tiny problems (packing never amortized) and k beyond the unblocked panel
// capacity.
//
//skynet:hotpath
func i8UseNaive(m, n, k int) bool {
	return m*n*k < gemmMinBlockedMACs || k > i8KC
}

// i8Exec runs an int8 call: the small-problem kernel where i8UseNaive says
// so, everything else through the blocked kernel and the shared dispatch —
// or, for a leaf call, as one chunk on this goroutine.
//
//skynet:hotpath
func i8Exec(c i8gemmCall) {
	if i8UseNaive(c.m, c.n, c.k) {
		c.runNaive()
		return
	}
	t := taskFree.get()
	t.i8, t.isI8 = c, true
	if c.leaf {
		t.run(0, c.n)
	} else {
		t.dispatch(c.m, c.n, c.k)
	}
	t.i8 = i8gemmCall{} // see gemmExec
	taskFree.put(t)
}

// Int8GEMMInto computes c = a·b for int8 A [m,k] and B [k,n], accumulating
// exactly in int32. c must have length m·n.
//
//skynet:hotpath
func Int8GEMMInto(c []int32, a, b []int8, m, n, k int) {
	checkI8("Int8GEMMInto", len(c), len(a), len(b), m, n, k, n)
	i8Exec(i8gemmCall{a: a, b: b, c32: c, m: m, n: n, k: k, ldc: n, mode: i8ModeInt32})
}

// Int8GEMMRequantInto computes dst = requantize(a·b) with the fused
// per-row epilogue ep — the layer-to-layer form of quantized inference,
// producing the next layer's int8 activations directly. dst must cover m
// rows of n at stride max(ep.Ldc, n); ep.Mult must have length m.
//
//skynet:hotpath
func Int8GEMMRequantInto(dst []int8, a, b []int8, m, n, k int, ep Int8Epilogue) {
	ldc := max(ep.Ldc, n)
	checkI8("Int8GEMMRequantInto", len(dst), len(a), len(b), m, n, k, ldc)
	checkI8Epilogue("Int8GEMMRequantInto", ep.Bias, ep.Mult, m)
	i8Exec(i8gemmCall{a: a, b: b, c8: dst, m: m, n: n, k: k, ldc: ldc,
		mode: i8ModeRequant, bias: ep.Bias, mult: ep.Mult, lo: ep.Lo, hi: ep.Hi, leaf: ep.Leaf})
}

// Int8GEMMDequantInto computes dst = float32(a·b + ep.Bias)·ep.Mult row-wise —
// the final-layer epilogue that hands int8 inference back to the float
// detection head. dst must cover m rows of n at stride max(ep.Ldc, n);
// ep.Mult length m; ep.Bias may be nil; ep's clamp is not used.
//
//skynet:hotpath
func Int8GEMMDequantInto(dst []float32, a, b []int8, m, n, k int, ep Int8Epilogue) {
	ldc := max(ep.Ldc, n)
	checkI8("Int8GEMMDequantInto", len(dst), len(a), len(b), m, n, k, ldc)
	checkI8Epilogue("Int8GEMMDequantInto", ep.Bias, ep.Mult, m)
	i8Exec(i8gemmCall{a: a, b: b, cf: dst, m: m, n: n, k: k, ldc: ldc,
		mode: i8ModeDequant, bias: ep.Bias, mult: ep.Mult, leaf: ep.Leaf})
}

// checkI8 validates operand lengths against the call geometry, the
// destination's rows ldc apart.
//
//skynet:hotpath
func checkI8(name string, lc, la, lb, m, n, k, ldc int) {
	if m <= 0 || n <= 0 || k <= 0 {
		panic("tensor: " + name + " requires positive dimensions")
	}
	if la < m*k || lb < k*n || lc < (m-1)*ldc+n {
		panic("tensor: " + name + " operand lengths do not cover the given shape")
	}
}

//skynet:hotpath
func checkI8Epilogue(name string, bias []int32, mult []float32, m int) {
	if len(mult) < m {
		panic("tensor: " + name + " needs one Mult per output row")
	}
	if bias != nil && len(bias) < m {
		panic("tensor: " + name + " Bias shorter than m")
	}
}

// runNaive is the unblocked reference: one exact int32 dot product per
// output element, with the epilogue applied inline. It is the correctness
// oracle for the blocked path and the fallback for shapes the blocked
// kernel does not cover (k > i8KC, tiny problems).
//
//skynet:hotpath
func (g *i8gemmCall) runNaive() {
	for i := 0; i < g.m; i++ {
		arow := g.a[i*g.k : (i+1)*g.k]
		var bias int32
		if g.bias != nil {
			bias = g.bias[i]
		}
		for j := 0; j < g.n; j++ {
			var acc int32
			for p, av := range arow {
				acc += int32(av) * int32(g.b[p*g.n+j])
			}
			switch g.mode {
			case i8ModeInt32:
				g.c32[i*g.ldc+j] = acc
			case i8ModeRequant:
				g.c8[i*g.ldc+j] = RequantizeRNE(acc+bias, g.mult[i], g.lo, g.hi)
			case i8ModeDequant:
				g.cf[i*g.ldc+j] = float32(float64(acc+bias) * float64(g.mult[i]))
			}
		}
	}
}

// run executes the blocked loop nest over columns [j0, j1) of the output.
// k is unblocked (k ≤ i8KC is guaranteed by i8UseNaive), so every tile is
// complete when stored and the epilogue fuses into the store.
//
//skynet:hotpath
func (g *i8gemmCall) run(j0, j1 int, s *i8Scratch) {
	for jc := j0; jc < j1; jc += i8NC {
		nc := min(i8NC, j1-jc)
		g.packB(s.bp, jc, nc)
		for ic := 0; ic < g.m; ic += i8MC {
			mc := min(i8MC, g.m-ic)
			g.packA(s.ap, ic, mc)
			g.macroKernel(s, ic, mc, jc, nc)
		}
	}
}

// macroKernel sweeps the MR×NR micro-tiles of the current (ic, jc) block.
// Panels are pair-packed, so strides and trip counts run over kp = ⌈k/2⌉
// pairs rather than k scalars.
//
//skynet:hotpath
func (g *i8gemmCall) macroKernel(s *i8Scratch, ic, mc, jc, nc int) {
	kp := (g.k + 1) / 2
	tile := &s.tile
	for jr := 0; jr < nc; jr += i8NR {
		nr := min(i8NR, nc-jr)
		bp := s.bp[(jr/i8NR)*kp*2*i8NR:]
		for ir := 0; ir < mc; ir += i8MR {
			mr := min(i8MR, mc-ir)
			ap := s.ap[(ir/i8MR)*kp*2*i8MR:]
			i8Micro(kp, ap, bp, tile)
			g.storeTile(tile, ic+ir, jc+jr, mr, nr)
		}
	}
}

// i8MicroKernelRef computes one MR×NR int32 tile over the pair-packed
// int8 panels: ap holds kp groups of 2·MR A-values ([a(i,p) a(i,p+1)] per
// row), bp holds kp groups of 2·NR B-values ([b(p,j) b(p+1,j)] per
// column). It is the portable implementation behind the i8Micro dispatch
// seam and mirrors the AVX2 VPMADDWD step: two k contributions per
// accumulator update. All arithmetic is exact int32, so the result is
// identical to any other evaluation order.
//
//skynet:hotpath
func i8MicroKernelRef(kp int, ap, bp []int8, tile *[i8MR * i8NR]int32) {
	var c00, c01, c02, c03, c04, c05, c06, c07 int32
	var c10, c11, c12, c13, c14, c15, c16, c17 int32
	var c20, c21, c22, c23, c24, c25, c26, c27 int32
	var c30, c31, c32, c33, c34, c35, c36, c37 int32
	for t := 0; t < kp; t++ {
		a := ap[t*2*i8MR : t*2*i8MR+2*i8MR]
		b := bp[t*2*i8NR : t*2*i8NR+2*i8NR]
		b00, b01 := int32(b[0]), int32(b[1])
		b10, b11 := int32(b[2]), int32(b[3])
		b20, b21 := int32(b[4]), int32(b[5])
		b30, b31 := int32(b[6]), int32(b[7])
		b40, b41 := int32(b[8]), int32(b[9])
		b50, b51 := int32(b[10]), int32(b[11])
		b60, b61 := int32(b[12]), int32(b[13])
		b70, b71 := int32(b[14]), int32(b[15])
		a0, a1 := int32(a[0]), int32(a[1])
		c00 += a0*b00 + a1*b01
		c01 += a0*b10 + a1*b11
		c02 += a0*b20 + a1*b21
		c03 += a0*b30 + a1*b31
		c04 += a0*b40 + a1*b41
		c05 += a0*b50 + a1*b51
		c06 += a0*b60 + a1*b61
		c07 += a0*b70 + a1*b71
		a0, a1 = int32(a[2]), int32(a[3])
		c10 += a0*b00 + a1*b01
		c11 += a0*b10 + a1*b11
		c12 += a0*b20 + a1*b21
		c13 += a0*b30 + a1*b31
		c14 += a0*b40 + a1*b41
		c15 += a0*b50 + a1*b51
		c16 += a0*b60 + a1*b61
		c17 += a0*b70 + a1*b71
		a0, a1 = int32(a[4]), int32(a[5])
		c20 += a0*b00 + a1*b01
		c21 += a0*b10 + a1*b11
		c22 += a0*b20 + a1*b21
		c23 += a0*b30 + a1*b31
		c24 += a0*b40 + a1*b41
		c25 += a0*b50 + a1*b51
		c26 += a0*b60 + a1*b61
		c27 += a0*b70 + a1*b71
		a0, a1 = int32(a[6]), int32(a[7])
		c30 += a0*b00 + a1*b01
		c31 += a0*b10 + a1*b11
		c32 += a0*b20 + a1*b21
		c33 += a0*b30 + a1*b31
		c34 += a0*b40 + a1*b41
		c35 += a0*b50 + a1*b51
		c36 += a0*b60 + a1*b61
		c37 += a0*b70 + a1*b71
	}
	tile[0], tile[1], tile[2], tile[3] = c00, c01, c02, c03
	tile[4], tile[5], tile[6], tile[7] = c04, c05, c06, c07
	tile[8], tile[9], tile[10], tile[11] = c10, c11, c12, c13
	tile[12], tile[13], tile[14], tile[15] = c14, c15, c16, c17
	tile[16], tile[17], tile[18], tile[19] = c20, c21, c22, c23
	tile[20], tile[21], tile[22], tile[23] = c24, c25, c26, c27
	tile[24], tile[25], tile[26], tile[27] = c30, c31, c32, c33
	tile[28], tile[29], tile[30], tile[31] = c34, c35, c36, c37
}

// storeTile writes a complete micro-tile through the call's epilogue,
// clipping the zero-padded edge rows and columns.
//
//skynet:hotpath
func (g *i8gemmCall) storeTile(tile *[i8MR * i8NR]int32, i0, j0, mr, nr int) {
	if f := rows.storeTileI; f != nil && g.mode == i8ModeRequant && mr == i8MR && nr == i8NR {
		var bias *int32
		if g.bias != nil {
			_ = g.bias[i0+i8MR-1]
			bias = &g.bias[i0]
		}
		_, _ = g.mult[i0+i8MR-1], g.c8[(i0+i8MR-1)*g.ldc+j0+i8NR-1]
		f(&g.c8[i0*g.ldc+j0], g.ldc, tile, bias, &g.mult[i0], g.lo, g.hi)
		return
	}
	for r := 0; r < mr; r++ {
		trow := tile[r*i8NR : r*i8NR+nr]
		var bias int32
		if g.bias != nil {
			bias = g.bias[i0+r]
		}
		switch g.mode {
		case i8ModeInt32:
			crow := g.c32[(i0+r)*g.ldc+j0 : (i0+r)*g.ldc+j0+nr]
			for q, v := range trow {
				crow[q] = v
			}
		case i8ModeRequant:
			mult := g.mult[i0+r]
			crow := g.c8[(i0+r)*g.ldc+j0 : (i0+r)*g.ldc+j0+nr]
			for q, v := range trow {
				crow[q] = RequantizeRNE(v+bias, mult, g.lo, g.hi)
			}
		case i8ModeDequant:
			mult := float64(g.mult[i0+r])
			crow := g.cf[(i0+r)*g.ldc+j0 : (i0+r)*g.ldc+j0+nr]
			for q, v := range trow {
				crow[q] = float32(float64(v+bias) * mult)
			}
		}
	}
}

// packA copies A[ic:ic+mc, 0:k] into MR-row panels, zero-padded past mc.
// Within a panel the layout is k-pair interleaved: pair t holds
// [a(i,2t) a(i,2t+1)] for each of the MR rows in turn, with the second
// element zero when k is odd and 2t+1 == k.
//
//skynet:hotpath
func (g *i8gemmCall) packA(dst []int8, ic, mc int) {
	kp := (g.k + 1) / 2
	mcp := (mc + i8MR - 1) / i8MR * i8MR
	for ir := 0; ir < mcp; ir += i8MR {
		base := (ir / i8MR) * kp * 2 * i8MR
		for r := 0; r < i8MR; r++ {
			if ir+r >= mc {
				for t := 0; t < kp; t++ {
					dst[base+t*2*i8MR+2*r] = 0
					dst[base+t*2*i8MR+2*r+1] = 0
				}
				continue
			}
			arow := g.a[(ic+ir+r)*g.k : (ic+ir+r)*g.k+g.k]
			for t := 0; t < kp; t++ {
				p := 2 * t
				dst[base+t*2*i8MR+2*r] = arow[p]
				if p+1 < g.k {
					dst[base+t*2*i8MR+2*r+1] = arow[p+1]
				} else {
					dst[base+t*2*i8MR+2*r+1] = 0
				}
			}
		}
	}
}

// packB copies B[0:k, jc:jc+nc] into NR-column panels, zero-padded past
// nc. Within a panel the layout is k-pair interleaved: pair t holds
// [b(2t,j) b(2t+1,j)] for each of the NR columns in turn — 16 consecutive
// bytes per pair, which is exactly one VPMOVSXBW load in the AVX2 kernel.
//
//skynet:hotpath
func (g *i8gemmCall) packB(dst []int8, jc, nc int) {
	kp := (g.k + 1) / 2
	ncp := (nc + i8NR - 1) / i8NR * i8NR
	for jr := 0; jr < ncp; jr += i8NR {
		di := (jr / i8NR) * kp * 2 * i8NR
		lim := nc - jr
		if lim > i8NR {
			lim = i8NR
		}
		for t := 0; t < kp; t++ {
			p := 2 * t
			row0 := g.b[p*g.n:]
			var row1 []int8
			if p+1 < g.k {
				row1 = g.b[(p+1)*g.n:]
			}
			for q := 0; q < lim; q++ {
				dst[di+2*q] = row0[jc+jr+q]
				if row1 != nil {
					dst[di+2*q+1] = row1[jc+jr+q]
				} else {
					dst[di+2*q+1] = 0
				}
			}
			for q := lim; q < i8NR; q++ {
				dst[di+2*q] = 0
				dst[di+2*q+1] = 0
			}
			di += 2 * i8NR
		}
	}
}
