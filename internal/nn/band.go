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
// Nothing is computed differently: the rows come from DWRow, the product
// from the GEMM entry point Conv2D.forwardImage uses, with the row tail, and
// the maxima from maxPoolInto. Where the bands are cut — it depends on how
// many workers a lone lane splits an image across (plan.go) — decides which
// call computes an element, never how.

// bandBudget is what one band may occupy, in bytes — its depth-wise rows
// and, under a pool, its product, which share its worker's buffer — unless
// one pool window is larger. The buffer is as long as the plan's largest
// band. Measured at SkyNet C's six Bundles from 256 KiB to 4 MiB (DESIGN
// §6): the early Bundles do not care, and the late, wide ones lose to their
// step-per-node form below 1 MiB, where a band is too few columns to pay
// for packing the weights again. A variable so that tests can cut small
// inputs into bands of a row or two.
var bandBudget = 1 << 20

// band is a Bundle step's structure. A unit of its work is k depth-wise
// output rows of an image — one row of pool windows.
type band struct {
	dw   *DWConv3
	pw   *Conv2D
	head int // dw's node, which heads the step
	conv int // pw's node, whose chain is the product's row tail
	last int // the chain's last node: what the product is
	pool int // the MaxPool node folded in, or -1
	// reorg is the Reorg node folded in beside pool, or -1: at a bypass source
	// the step writes two maps, the pooled one and the reordered one.
	reorg int
	out   int // the node whose output the step writes: pool, else the chain's last
	k     int // the pool's window; 1 without a pool
	rows  int // depth-wise output rows per band at most: a multiple of k
	len   int // the worker buffer the largest band needs
}

// fit sizes the bands for a depth-wise output of outH×outW — as many rows as
// bandBudget holds, a whole number of pool windows, at least one and at most
// the image — and the worker buffer they then need.
func (b *band) fit(outH, outW int) {
	perRow := b.dw.C
	if b.pool >= 0 {
		perRow += b.pw.OutC
	}
	b.rows = bandBudget / (4 * outW * perRow) / b.k * b.k
	b.rows = min(max(b.rows, b.k), outH/b.k*b.k)
	b.len = perRow * b.rows * outW
}

// carve cuts a band of n columns out of a worker's buffer: the depth-wise
// rows [C, n] at its head and, for a step with a pool, the product [OutC, n]
// right behind them.
//
//skynet:hotpath
func (b *band) carve(buf []float32, n int) (dw, pw []float32) {
	dw = buf[:b.dw.C*n]
	if b.pool >= 0 {
		pw = buf[len(dw) : len(dw)+b.pw.OutC*n]
	}
	return dw, pw
}

// bandShare is the operands of one Bundle step on one image: the image
// [C,h,w], src; its output dst; for a step that folds a Reorg, the image's
// reordered map reorg; the convolution's epilogue, as for
// Conv2D.forwardImage; the forward's observer, if any; and the lanes whose
// band buffers the workers use, worker i lane i's. The geometry is the one
// recorded on both layers.
type bandShare struct {
	b        *band
	dst, src []float32
	reorg    []float32
	ep       tensor.RowEpilogue
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
	b, d, c := a.b, a.b.dw, a.b.pw
	plane, cols, n := d.inH*d.inW, d.outH*d.outW, rows*d.outW
	dwb, pwb := b.carve(buf, n)
	for ch := 0; ch < d.C; ch++ {
		d.rows(dwb[ch*n:(ch+1)*n], a.src[ch*plane:(ch+1)*plane], ch, r0)
	}
	if a.observe != nil {
		a.observe(b.head, dwb)
	}
	// BandOf: the unfused convolution multiplies the whole image at once.
	p := tensor.RowProduct{M: c.OutC, N: n, K: c.InC, BandOf: cols, Ep: a.ep}
	if b.pool < 0 {
		p.Ldc = cols
		at := r0 * d.outW
		tensor.MatMulRowEpilogueInto(a.dst[at:at+(c.OutC-1)*cols+n], c.Weight.W.Data, dwb, p)
		return
	}
	tensor.MatMulRowEpilogueInto(pwb, c.Weight.W.Data, dwb, p)
	if a.observe != nil {
		a.observe(b.last, pwb)
	}
	oh, ow := d.outH/b.k, d.outW/b.k
	for oc := 0; oc < c.OutC; oc++ {
		at := (oc*oh + r0/b.k) * ow
		maxPoolInto(a.dst[at:at+rows/b.k*ow], pwb[oc*n:(oc+1)*n], 1, rows, d.outW, b.k)
	}
	if a.reorg != nil {
		ReorgRows(a.reorg, pwb, c.OutC, d.outH, d.outW, b.k, r0, rows)
	}
}
