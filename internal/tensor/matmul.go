package tensor

import "fmt"

// The exported MatMul* family are names for settings of one call descriptor:
// each has gemmOf check its shapes and fill a gemmCall, sets its own
// accumulate or bias field, and hands it to gemmExec (gemm.go), which runs
// tiny problems — where packing costs more than it saves — on the
// small-problem kernel and everything else on the blocked, packed GEMM. Both
// sum each C element's products in ascending k; a given shape always takes
// the same path under a given micro-kernel. Large calls additionally
// parallelize across column chunks of C; see MaxParallelism.

// gemmOf validates the shapes of c (+)= op(a)·op(b) — a is stored [m,k] or,
// with aTrans, [k,m]; b is stored [k,n] or, with bTrans, [n,k]; c is [m,n] —
// and returns the overwriting, bias-free descriptor of the product.
//
//skynet:hotpath
func gemmOf(name string, c, a, b *Tensor, aTrans, bTrans bool) gemmCall {
	m, k := a.shape[0], a.shape[1]
	if aTrans {
		m, k = k, m
	}
	kb, n := b.shape[0], b.shape[1]
	if bTrans {
		kb, n = n, kb
	}
	if kb != k {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v vs %v", name, a.shape, b.shape))
	}
	if c.shape[0] != m || c.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s output shape %v, want [%d %d]", name, c.shape, m, n))
	}
	return gemmCall{a: a.Data, b: b.Data, c: c.Data, m: m, n: n, k: k,
		lda: a.shape[1], ldb: b.shape[1], ldc: n, aTrans: aTrans, bTrans: bTrans}
}

// MatMulInto computes c = a·b, overwriting c. c must have shape [m,n].
//
//skynet:hotpath
func MatMulInto(c, a, b *Tensor) {
	gemmExec(gemmOf("MatMulInto", c, a, b, false, false))
}

// RowProduct describes the product MatMulRowEpilogueInto computes: a is
// [M,K] and b is [K,N], both dense; c is [M,N] with row stride Ldc.
type RowProduct struct {
	M, N, K int
	// Ldc is the row stride of c, 0 meaning N: a larger one makes c a column
	// window of a wider matrix.
	Ldc int
	// BandOf, when positive, says the call computes N columns of a product
	// BandOf columns wide whose other columns other calls compute, possibly
	// on other goroutines at this moment. The small-problem decision is then
	// the whole product's, so where the bands are cut changes no bit, and the
	// call runs on the calling goroutine alone: it is a leaf that may be made
	// from a parallelRange body.
	BandOf int
	Ep     RowEpilogue // applied to each row
}

// MatMulRowEpilogueInto computes c = a·b on raw row-major slices and applies
// p.Ep to each row: the product a convolution lowers to, where rows are
// output channels. Taking b as a slice lets a 1×1 convolution multiply its
// feature map in place, and c be a window of a larger buffer.
//
//skynet:hotpath
func MatMulRowEpilogueInto(c, a, b []float32, p RowProduct) {
	m, n, k, ep := p.M, p.N, p.K, &p.Ep
	ldc := n
	if p.Ldc > 0 {
		ldc = p.Ldc
	}
	if len(a) != m*k || len(b) != k*n || len(c) != (m-1)*ldc+n || ldc < n {
		panic(fmt.Sprintf("tensor: MatMulRowEpilogueInto operand lengths %d, %d, %d do not match m=%d n=%d k=%d ldc=%d", len(c), len(a), len(b), m, n, k, ldc))
	}
	if ep.Bias != nil && len(ep.Bias) != m ||
		ep.Gamma != nil && (len(ep.Gamma) != m || len(ep.Mean) != m || len(ep.Inv) != m || len(ep.Beta) != m) {
		panic(fmt.Sprintf("tensor: MatMulRowEpilogueInto needs %d values per epilogue operand", m))
	}
	gemmExec(gemmCall{a: a, b: b, c: c, m: m, n: n, k: k, lda: k, ldb: n, ldc: ldc, bandOf: p.BandOf, row: p.Ep})
}

// MatMulTransposeAInto computes c = aᵀ·b for a of shape [k,m] and b of
// shape [k,n]; c must have shape [m,n]. Used for input gradients. A leaf
// call multiplies on the calling goroutine alone, as RowProduct.BandOf makes
// a forward's; the bits are the same.
//
//skynet:hotpath
func MatMulTransposeAInto(c, a, b *Tensor, leaf bool) {
	gemmExec(gemmOf("MatMulTransposeAInto", c, a, b, true, false).leafIf(leaf))
}

// MatMulTransposeAAddInto computes c += aᵀ·b for a of shape [k,m] and b of
// shape [k,n]; c must have shape [m,n].
func MatMulTransposeAAddInto(c, a, b *Tensor) {
	g := gemmOf("MatMulTransposeAAddInto", c, a, b, true, false)
	g.acc = true
	gemmExec(g)
}

// MatMulTransposeBAddInto computes c += a·bᵀ for a of shape [m,k] and b of
// shape [n,k]; c must have shape [m,n]. Used to accumulate weight gradients.
// leaf is MatMulTransposeAInto's.
//
//skynet:hotpath
func MatMulTransposeBAddInto(c, a, b *Tensor, leaf bool) {
	g := gemmOf("MatMulTransposeBAddInto", c, a, b, false, true).leafIf(leaf)
	g.acc = true
	gemmExec(g)
}

// leafIf makes g a leaf call when leaf is set: a band as wide as the whole
// product, so the small-problem decision is the call's own.
//
//skynet:hotpath
func (g gemmCall) leafIf(leaf bool) gemmCall {
	if leaf {
		g.bandOf = g.n
	}
	return g
}
