package nn

import "skynet/internal/tensor"

// This file is the plan's Bundle step: a DWConv3 whose only consumer is a
// 1×1 convolution — with that convolution's chain, and the max-pool that is
// the chain's only consumer, when there is one, or the max-pool and the
// reorder that both read the bypass source — computed band by band. A
// band is a few output rows of one image: its depth-wise rows fill the
// head of a worker's cache-sized buffer, the 1×1 product reads them from
// there and, under a pool, writes the rest of the buffer, which the pool
// reduces into the destination and the reorder, if any, deals out to its
// own. The depth-wise map and the map before the pool are never whole
// anywhere, so they have no arena slot. It is the CPU image of the paper's
// shared Bundle IP (§6.2, Figure 9), which keeps both on chip. A forward's
// observer (Plan.Run) is shown both band by band in the buffer, from several
// workers at once under a split, the rows below a pool's last whole window
// included: nothing else reads those, and only an observed step computes them.
//
// Nothing is computed differently: the rows come from DWConv3.rows, the
// product from Conv2D.forwardImage's GEMM entry point over the weights packed
// as the forward began, with the row tail, and the maxima from maxPoolInto.
// Where the bands are cut — it depends on how many workers a lone lane splits
// an image across (plan.go) — decides which call computes an element, never how.

// bandBudget is what one band may occupy, in bytes — its depth-wise rows
// and, under a pool, its product, which share its worker's buffer — unless
// one pool window is larger. The buffer is as long as the plan's largest
// band. Measured at SkyNet C's six Bundles from 256 KiB to 4 MiB (DESIGN
// §6), the weights packed once per forward: 1 MiB has the least total; the
// first Bundle gains a little below it and loses above, and the late, wide
// ones lose below it, where a band is too few columns to pay for streaming
// all of the packed weights once more. A variable so that tests can cut
// small inputs into bands of a row or two.
var bandBudget = 1 << 20

// Band is the rest of a Bundle step, whose Node is a DWConv3: the step
// computes Node, then the 1×1 convolution Conv with the step's Chain fused,
// then the max-pool Pool, band by band, and materialises only the last of
// them — and, at a bypass source, the reordered map beside it. A unit of its
// work is K depth-wise output rows of an image: one row of pool windows.
type Band struct {
	Conv int // the 1×1 Conv2D node that alone consumes Node
	Pool int // the MaxPool node that consumes the chain, or -1
	// Reorg is the Reorg node that reads the chain beside Pool, or -1: the step
	// writes its slot too.
	Reorg int
	K     int // the pool's window; 1 without a pool
	// Rows is how many depth-wise output rows a band holds at most, a whole
	// number of pool windows, and Len the worker buffer the largest band needs.
	Rows, Len int

	dw *DWConv3
	pw *Conv2D
}

// fit sizes the bands for a depth-wise output of outH×outW — as many rows as
// bandBudget holds, a whole number of pool windows, at least one and at most
// the image — and the worker buffer they then need.
func (b *Band) fit(outH, outW int) {
	perRow := b.dw.C
	if b.Pool >= 0 {
		perRow += b.pw.OutC
	}
	b.Rows = bandBudget / (4 * outW * perRow) / b.K * b.K
	b.Rows = min(max(b.Rows, b.K), outH/b.K*b.K)
	b.Len = perRow * b.Rows * outW
}

// carve cuts a band of n columns out of a worker's buffer: the depth-wise
// rows [C, n] at its head and, for a step with a pool, the product [OutC, n]
// right behind them.
//
//skynet:hotpath
func (b *Band) carve(buf []float32, n int) (dw, pw []float32) {
	dw = buf[:b.dw.C*n]
	if b.Pool >= 0 {
		pw = buf[len(dw) : len(dw)+b.pw.OutC*n]
	}
	return dw, pw
}

// bandShare is the operands of one Bundle step s on one image: the image
// [C,h,w], src; its output dst; for a step that folds a Reorg, the image's
// reordered map reorg; the convolution's epilogue, as for
// Conv2D.forwardImage; the forward's observer, if any; and the lanes whose
// band buffers the workers use, worker i lane i's. The geometry is the one
// recorded on both layers.
type bandShare struct {
	s        *Step
	dst, src []float32
	reorg    []float32
	ep       tensor.RowEpilogue
	packed   []float32 // the convolution's weights in panels (planNode.packed)
	observe  func(node int, data []float32)
	workers  []*lane
}

//skynet:hotpath
func (a *bandShare) Band(w, r0, rows int) { a.compute(a.workers[w].band, r0, rows) }

// Bands is a step RunBands runs: Band computes rows [r0, r0+rows) on worker w.
type Bands interface{ Band(w, r0, rows int) }

// RunBands runs a Bundle step of either engine — n units of k depth-wise rows,
// a row of pool windows each, in bands of at most rows rows —: all on worker w
// on a leaf walk, else dealt in contiguous shares to as many workers as
// MaxParallelism and the buffers allow. Bands make leaf GEMM calls only, so
// the workers may be the GEMM pool's.
//
//skynet:hotpath
func RunBands(b Bands, n, k, rows, w, buffers int, leaf bool) {
	r := bandRun{b: b, k: k, per: rows / k, n: n, each: n}
	if leaf {
		r.units(w, 0, n)
		return
	}
	nw := min(workersFor(n), buffers)
	r.each = (n + nw - 1) / nw
	bandRuns.Run(nw, r, bandRun.shares)
}

// bandRuns runs RunBands' workers.
var bandRuns = tensor.NewRanger[bandRun]()

// bandRun is one RunBands call: per units to a band, each to a worker.
type bandRun struct {
	b               Bands
	k, per, n, each int
}

//skynet:hotpath
func (r bandRun) shares(lo, hi int) {
	for i := lo; i < hi; i++ {
		r.units(i, i*r.each, min((i+1)*r.each, r.n))
	}
}

//skynet:hotpath
func (r bandRun) units(w, lo, hi int) {
	for u := lo; u < hi; u += r.per {
		r.b.Band(w, u*r.k, min(r.per, hi-u)*r.k)
	}
}

// compute is one band: depth-wise output rows [r0, r0+rows) of the image,
// through the product, to the destination — under a pool, the band's product
// is pooled into dst and, at a bypass source, gathered space-to-depth into
// reorg while it is still in the worker's buffer: the reordering is where the
// store lands, as on the paper's Bundle IP (§6.2, Figure 9), not a pass over a
// finished map. The product is a leaf call — a band runs inside a lane or a
// lone lane's split, both on the GEMM pool. An observer is shown the band's
// depth-wise rows as the head's and, under a pool, its product as the chain
// end's; without a pool the product is the step's output, shown whole.
//
//skynet:hotpath
func (a *bandShare) compute(buf []float32, r0, rows int) {
	b := a.s.Band
	d, c := b.dw, b.pw
	plane, cols, n := d.inH*d.inW, d.outH*d.outW, rows*d.outW
	dwb, pwb := b.carve(buf, n)
	for ch := 0; ch < d.C; ch++ {
		d.rows(dwb[ch*n:(ch+1)*n], a.src[ch*plane:(ch+1)*plane], ch, r0)
	}
	if a.observe != nil {
		a.observe(a.s.Node, dwb)
	}
	// BandOf: the unfused convolution multiplies the whole image at once.
	p := tensor.RowProduct{M: c.OutC, N: n, K: c.InC, BandOf: cols, Ep: a.ep, Packed: a.packed}
	if b.Pool < 0 {
		p.Ldc = cols
		at := r0 * d.outW
		tensor.MatMulRowEpilogueInto(a.dst[at:at+(c.OutC-1)*cols+n], c.Weight.W.Data, dwb, p)
		return
	}
	tensor.MatMulRowEpilogueInto(pwb, c.Weight.W.Data, dwb, p)
	if a.observe != nil {
		a.observe(a.s.Chain.Last(b.Conv), pwb)
	}
	oh, ow := d.outH/b.K, d.outW/b.K
	for oc := 0; oc < c.OutC; oc++ {
		at := (oc*oh + r0/b.K) * ow
		maxPoolInto(a.dst[at:at+rows/b.K*ow], pwb[oc*n:(oc+1)*n], 1, rows, d.outW, b.K)
	}
	if a.reorg != nil {
		ReorgRows(a.reorg, pwb, c.OutC, d.outH, d.outW, b.K, r0, rows)
	}
}
