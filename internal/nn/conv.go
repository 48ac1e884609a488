package nn

import (
	"math/rand"

	"skynet/internal/tensor"
)

// Conv2D is a standard 2-D convolution over [N,C,H,W] inputs, lowered to
// matrix multiplication via im2col. Weights have logical shape
// [OutC, InC, K, K] and are stored flattened as [OutC, InC*K*K].
//
// Forward and Backward — the layer walk: training, an inference forward under
// an FMHook or of a graph the plan does not wholly lower — are each one loop
// over the batch, split across goroutines (parallelFor); the inference plan
// instead hands forwardImage one image at a time from its lanes (plan.go).
// Either way the operands of a call are its arguments, never layer fields;
// scratch is per worker — im2col buffers and Backward's gradient views — and
// worker 0 is the calling goroutine. A warm Forward allocates its output
// tensor and, beyond one worker, the goroutines of the batch split; the
// output belongs to the caller.
//
// A 1×1, stride-1, unpadded convolution skips im2col: its [InC, H·W] image
// already is the GEMM's B operand.
type Conv2D struct {
	InC, OutC int
	K         int // square kernel size
	Stride    int
	Pad       int
	UseBias   bool
	Weight    *Param // [OutC, InC*K*K]
	Bias      *Param // [OutC], nil unless UseBias
	label     string
	x         *tensor.Tensor // input of the last training forward, for Backward
	// Geometry of the last forward (forwardInto), for Cost and Backward.
	lastN, inH, inW, outH, outW int

	ws       []convScratch    // per-worker scratch, reused across calls
	dout, dx *tensor.Tensor   // Backward in flight: output gradient, input gradient
	dwImg    []*tensor.Tensor // per-image weight-gradient staging [OutC, InC*K*K]
	dbImg    []float32        // per-image bias-gradient staging [n*OutC]
}

// convScratch is one worker's private scratch. Gradients are not
// accumulated here: Param.G is shared across the whole batch, so each
// image's contribution is staged per image (Conv2D.dwImg/dbImg) and merged
// in image order — a fixed reduction tree, bitwise identical for any
// worker count.
type convScratch struct {
	col  *tensor.Tensor // im2col of the worker's current image
	dcol *tensor.Tensor // gradient of the im2col matrix; nil until the first Backward
	om   *tensor.Tensor // view of the current image's output gradient [OutC, outH*outW], repointed per image
}

// NewConv2D constructs a convolution with He-initialized weights.
func NewConv2D(rng *rand.Rand, inC, outC, k, stride, pad int, bias bool) *Conv2D {
	c := &Conv2D{InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad, UseBias: bias,
		label: "conv", Weight: NewParam("weight", outC, inC*k*k)}
	c.Weight.W.HeInit(rng, inC*k*k)
	if bias {
		c.Bias = NewParam("bias", outC)
	}
	return c
}

// NewPWConv1 constructs the paper's point-wise 1×1 convolution
// (PW-Conv1), a Conv2D with kernel 1, stride 1 and no padding.
func NewPWConv1(rng *rand.Rand, inC, outC int, bias bool) *Conv2D {
	c := NewConv2D(rng, inC, outC, 1, 1, 0, bias)
	c.label = "pwconv1"
	return c
}

func (c *Conv2D) Name() string { return c.label }

func (c *Conv2D) Params() []*Param {
	if c.Bias != nil {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Weight}
}

// Forward lowers the convolution to one GEMM per image, the images split
// across workers.
//
//skynet:hotpath
func (c *Conv2D) Forward(xs []*tensor.Tensor, train bool) *tensor.Tensor {
	x := one(xs, c.label)
	expect4D(x.Shape(), c.InC, c.label)
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outH, outW := c.outSize(h, w)
	out := tensor.New(n, c.OutC, outH, outW)
	c.forwardInto(out.Data, x.Data, n, h, w)
	c.x = cacheIf(train, x)
	return out
}

// forwardInto convolves the n images [InC,h,w] of src into dst, the images
// split across workers, and records the geometry.
//
//skynet:hotpath
func (c *Conv2D) forwardInto(dst, src []float32, n, h, w int) {
	c.record(n, h, w)
	if !c.direct() {
		c.ensureScratch(workersFor(n))
	}
	parallelFor(n, convImages{c, dst, src}, convImages.image)
}

// convImages is the operands of one forwardInto, as its loop body takes them.
type convImages struct {
	c        *Conv2D
	dst, src []float32
}

// image is forwardInto's loop body: image i on the given worker's scratch.
//
//skynet:hotpath
func (a convImages) image(worker, i int) {
	c := a.c
	imgSz, perImg := c.InC*c.inH*c.inW, c.OutC*c.outH*c.outW
	c.forwardImage(a.dst[i*perImg:(i+1)*perImg], a.src[i*imgSz:(i+1)*imgSz], worker, c.epilogue(tensor.RowEpilogue{}), false)
}

// record notes the geometry of a forward over n images [InC,h,w], which is
// what Cost and Backward read, and drops the input a training forward
// cached for Backward, since it no longer matches.
//
//skynet:hotpath
func (c *Conv2D) record(n, h, w int) {
	c.x = nil
	c.lastN, c.inH, c.inW = n, h, w
	c.outH, c.outW = c.outSize(h, w)
}

// epilogue is tail — a fused chain's batch norm and clamp, or nothing — with
// the layer's own bias in place of tail's.
//
//skynet:hotpath
func (c *Conv2D) epilogue(tail tensor.RowEpilogue) tensor.RowEpilogue {
	tail.Bias = nil
	if c.Bias != nil {
		tail.Bias = c.Bias.W.Data
	}
	return tail
}

// outSize returns the output height and width for an h×w input.
//
//skynet:hotpath
func (c *Conv2D) outSize(h, w int) (int, int) {
	return tensor.ConvOut(h, c.K, c.Stride, c.Pad), tensor.ConvOut(w, c.K, c.Stride, c.Pad)
}

// direct reports whether an image is its own im2col matrix.
//
//skynet:hotpath
func (c *Conv2D) direct() bool { return c.K == 1 && c.Stride == 1 && c.Pad == 0 }

// forwardImage convolves one image [InC,inH,inW] of the recorded geometry
// into dst on the given worker's scratch — the one convolution of both
// walks. ep (epilogue) runs in the GEMM store: the inference plan fuses the
// conv's sole-consumer BatchNorm and ReLU there. A leaf call multiplies on
// the calling goroutine alone, as one lane among several must; the bits are
// the same.
//
//skynet:hotpath
func (c *Conv2D) forwardImage(dst, src []float32, worker int, ep tensor.RowEpilogue, leaf bool) {
	cols := c.outH * c.outW
	if !c.direct() {
		col := c.ws[worker].col.Data
		tensor.Im2ColInto(col, src, c.InC, c.inH, c.inW, c.K, c.K, c.Stride, c.Pad)
		src = col
	}
	p := tensor.RowProduct{M: c.OutC, N: cols, K: c.InC * c.K * c.K, Ep: ep}
	if leaf {
		p.BandOf = cols
	}
	tensor.MatMulRowEpilogueInto(dst, c.Weight.W.Data, src, p)
}

// ensureScratch sizes the per-worker scratch for nw workers at the current
// im2col geometry.
//
//skynet:hotpath
func (c *Conv2D) ensureScratch(nw int) {
	rows, cols := c.InC*c.K*c.K, c.outH*c.outW
	if len(c.ws) < nw || c.ws[0].col.Dim(1) != cols {
		//skynet:nolint hotalloc -- grow-once scratch: reallocates only when the worker count or im2col geometry changes, never in steady state
		c.ws = make([]convScratch, nw)
		for i := range c.ws {
			c.ws[i].col = tensor.New(rows, cols)
		}
	}
}

// Backward stages each image's weight and bias gradient in that image's
// slot — not per worker, and not GEMM-accumulated into G directly — and
// merges the slots in image order afterwards, so the reduction tree is the
// same for every worker count and training stays bitwise reproducible
// across GOMAXPROCS settings.
func (c *Conv2D) Backward(dout *tensor.Tensor) []*tensor.Tensor {
	needTrainForward(c.x, c.label)
	n := c.lastN
	rows := c.InC * c.K * c.K
	nw := workersFor(n)
	c.ensureScratch(nw)
	for i := range c.ws[:nw] {
		if c.ws[i].dcol == nil {
			c.ws[i].dcol = tensor.New(rows, c.outH*c.outW)
		}
	}
	if len(c.dwImg) < n {
		c.dwImg = make([]*tensor.Tensor, n)
		for i := range c.dwImg {
			c.dwImg[i] = tensor.New(c.OutC, rows)
		}
		c.dbImg = make([]float32, n*c.OutC)
	}
	dx := tensor.New(n, c.InC, c.inH, c.inW)
	c.dout, c.dx = dout, dx
	parallelFor(n, c, (*Conv2D).backwardImage)
	c.dout, c.dx = nil, nil
	for i := 0; i < n; i++ {
		c.Weight.G.AddInPlace(c.dwImg[i])
		if c.Bias != nil {
			for o := 0; o < c.OutC; o++ {
				c.Bias.G.Data[o] += c.dbImg[i*c.OutC+o]
			}
		}
	}
	return []*tensor.Tensor{dx}
}

// backwardImage is Backward's loop body: image i on the given worker's
// scratch, its parameter gradients staged in slot i.
func (c *Conv2D) backwardImage(worker, i int) {
	s := &c.ws[worker]
	h, w, cols := c.inH, c.inW, c.outH*c.outW
	imgSz, perImg := c.InC*h*w, c.OutC*cols
	tensor.Im2ColInto(s.col.Data, c.x.Data[i*imgSz:(i+1)*imgSz], c.InC, h, w, c.K, c.K, c.Stride, c.Pad)
	s.om = viewInto2(s.om, c.dout.Data[i*perImg:(i+1)*perImg], c.OutC, cols)
	// dW_i = dout_i · col_iᵀ
	dwi := c.dwImg[i]
	dwi.Zero()
	tensor.MatMulTransposeBAddInto(dwi, s.om, s.col)
	// dcol = Wᵀ · dout, scattered straight into this image's slice of dx
	// (Col2Im zeroes it).
	tensor.MatMulTransposeAInto(s.dcol, c.Weight.W, s.om)
	tensor.Col2Im(c.dx.Data[i*imgSz:(i+1)*imgSz], s.dcol.Data, c.InC, h, w, c.K, c.K, c.Stride, c.Pad)
	if c.Bias != nil {
		for o := 0; o < c.OutC; o++ {
			var sum float32
			for _, g := range s.om.Data[o*cols : (o+1)*cols] {
				sum += g
			}
			c.dbImg[i*c.OutC+o] = sum
		}
	}
}

// Cost reports MACs and bytes moved for the most recent forward pass.
func (c *Conv2D) Cost() (macs, bytes int64) {
	spatial := int64(c.outH) * int64(c.outW)
	macs = int64(c.lastN) * int64(c.OutC) * int64(c.InC) * int64(c.K*c.K) * spatial
	wBytes := int64(c.Weight.W.Len()) * 4
	inBytes := int64(c.lastN*c.InC) * int64(c.inH*c.inW) * 4
	outBytes := int64(c.lastN*c.OutC) * spatial * 4
	return macs, wBytes + inBytes + outBytes
}

// DWConv3 is the paper's 3×3 depth-wise convolution (DW-Conv3): each input
// channel is convolved with its own K×K filter, stride 1, "same" padding.
// Weights have shape [C, K, K]. This is the compute-saving building block
// of the SkyNet Bundle (Howard et al., 2017).
type DWConv3 struct {
	C       int
	K       int
	Stride  int
	Pad     int
	UseBias bool
	Weight  *Param         // [C, K, K]
	Bias    *Param         // [C]
	x       *tensor.Tensor // input of the last training forward, for Backward
	// Geometry of the last forward (forwardInto), for Cost and Backward.
	lastN, inH, inW, outH, outW int
}

// NewDWConv3 constructs a depth-wise convolution with He initialization.
// Stride is 1 and padding is K/2 ("same"), matching the SkyNet Bundle.
func NewDWConv3(rng *rand.Rand, c, k int, bias bool) *DWConv3 {
	d := &DWConv3{C: c, K: k, Stride: 1, Pad: k / 2, UseBias: bias,
		Weight: NewParam("weight", c, k, k)}
	d.Weight.W.HeInit(rng, k*k)
	if bias {
		d.Bias = NewParam("bias", c)
	}
	return d
}

func (d *DWConv3) Name() string { return "dwconv3" }

func (d *DWConv3) Params() []*Param {
	if d.Bias != nil {
		return []*Param{d.Weight, d.Bias}
	}
	return []*Param{d.Weight}
}

func (d *DWConv3) Forward(xs []*tensor.Tensor, train bool) *tensor.Tensor {
	x := one(xs, "dwconv3")
	expect4D(x.Shape(), d.C, "dwconv3")
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outH, outW := d.outSize(h, w)
	out := tensor.New(n, d.C, outH, outW)
	d.forwardInto(out.Data, x.Data, n, h, w)
	d.x = cacheIf(train, x)
	return out
}

// outSize returns the output height and width for an h×w input.
//
//skynet:hotpath
func (d *DWConv3) outSize(h, w int) (int, int) {
	return tensor.ConvOut(h, d.K, d.Stride, d.Pad), tensor.ConvOut(w, d.K, d.Stride, d.Pad)
}

// forwardInto convolves the n images [C,h,w] of src into dst and records the
// geometry.
//
//skynet:hotpath
func (d *DWConv3) forwardInto(dst, src []float32, n, h, w int) {
	d.record(n, h, w)
	d.splitPlanes(dst, src, n)
}

// splitPlanes convolves n images of the recorded geometry with the planes
// dealt across the GEMM pool: each (image, channel) plane is independent and
// a plane calls no GEMM, so the loop is a leaf the pool's workers may run, and
// a warm call starts no goroutine and allocates nothing.
//
//skynet:hotpath
func (d *DWConv3) splitPlanes(dst, src []float32, n int) {
	dwPlanes.Run(n*d.C, dwImages{d, dst, src}, dwImages.planes)
}

// dwPlanes runs splitPlanes' loops.
var dwPlanes = tensor.NewRanger[dwImages]()

// dwImages is the operands of one splitPlanes, as its loop body takes them.
type dwImages struct {
	d        *DWConv3
	dst, src []float32
}

// planes is splitPlanes' loop body.
//
//skynet:hotpath
func (a dwImages) planes(lo, hi int) { a.d.planes(a.dst, a.src, lo, hi) }

// record is Conv2D.record for the depth-wise layer.
//
//skynet:hotpath
func (d *DWConv3) record(n, h, w int) {
	d.x = nil
	d.lastN, d.inH, d.inW = n, h, w
	d.outH, d.outW = d.outSize(h, w)
}

// planes convolves planes [lo, hi) of the flattened (image, channel) grid of
// src, images [C,inH,inW] of the recorded geometry, into their planes of dst:
// of one image, channels [lo, hi).
//
//skynet:hotpath
func (d *DWConv3) planes(dst, src []float32, lo, hi int) {
	in, out := d.inH*d.inW, d.outH*d.outW
	for idx := lo; idx < hi; idx++ {
		d.rows(dst[idx*out:(idx+1)*out], src[idx*in:(idx+1)*in], idx%d.C, 0)
	}
}

// rows computes consecutive output rows of channel ch's plane, as many as dst
// holds starting at row oy, from the channel's input plane in [inH,inW] of
// the recorded geometry.
//
//skynet:hotpath
func (d *DWConv3) rows(dst, in []float32, ch, oy int) {
	k, outW := d.K, d.outW
	ker := d.Weight.W.Data[ch*k*k : (ch+1)*k*k]
	var bias float32
	if d.Bias != nil {
		bias = d.Bias.W.Data[ch]
	}
	for r := 0; r*outW < len(dst); r++ {
		DWRow(dst[r*outW:(r+1)*outW], in, ker, bias, d.inH, d.inW, k, d.Stride, d.Pad, oy+r)
	}
}

// DWRow computes output row oy of one depth-wise plane: acc[ox] is the bias
// plus the k×k taps of in [h,w] under ker, for every output column. It is
// the one depth-wise loop of both engines — float32 summed in float32 here,
// int8 codes summed in int32 by internal/quant, which requantizes the row
// as it stores it.
//
// A tap outside the image contributes nothing, so a row at the top or bottom
// edge is a row under the kernel rows that lie inside the image, and along a
// row every output whose k columns all lie inside — all but pad at each end —
// takes dwInteriorRow, a loop with no bounds tests (vector code for the 3-wide
// stride-1 case where the kernel has it); the end columns take dwPixel. All
// start from the bias and add the remaining taps in ascending (ky, kx) order,
// so where the splits fall changes no bit.
//
//skynet:hotpath
func DWRow[E float32 | int8, A float32 | int32](acc []A, in, ker []E, bias A, h, w, k, stride, pad, oy int) {
	iy0 := oy*stride - pad
	ky0, ky1 := inside(iy0, k, h)
	x0, x1 := interior(w, len(acc), k, stride, pad)
	if ky0 >= ky1 {
		x0, x1 = len(acc), len(acc) // no kernel row inside: dwPixel's loop is empty, the row is the bias
	}
	for ox := 0; ox < x0; ox++ {
		acc[ox] = dwPixel(in, ker, bias, h, w, k, iy0, ox*stride-pad)
	}
	if x0 < x1 {
		// The window of output x0 has its top-left corner at column
		// x0·stride-pad; its first row inside the image is iy0+ky0.
		dwInteriorRow(acc[x0:x1], in[(iy0+ky0)*w+x0*stride-pad:], ker[ky0*k:ky1*k], bias, w, k, stride)
	}
	for ox := x1; ox < len(acc); ox++ {
		acc[ox] = dwPixel(in, ker, bias, h, w, k, iy0, ox*stride-pad)
	}
}

// dwInteriorRow computes consecutive outputs o of one row whose windows'
// columns lie wholly inside the image, under the len(ker)/k kernel rows
// given; in starts at the first window's top-left tap among those rows and w
// is the image's row stride.
//
//skynet:hotpath
func dwInteriorRow[E float32 | int8, A float32 | int32](o []A, in, ker []E, bias A, w, k, stride int) {
	if k == 3 && stride == 1 {
		n := tensor.DW3Row(o, in, w, ker, bias) // the vector kernel's share, if there is one
		o, in = o[n:], in[n:]
		if len(ker) == 9 {
			r0, r1, r2 := in[:len(o)+2], in[w:w+len(o)+2], in[2*w:2*w+len(o)+2]
			k0, k1, k2, k3, k4, k5, k6, k7, k8 := A(ker[0]), A(ker[1]), A(ker[2]), A(ker[3]), A(ker[4]), A(ker[5]), A(ker[6]), A(ker[7]), A(ker[8])
			for i := range o {
				s := bias
				s += A(r0[i]) * k0
				s += A(r0[i+1]) * k1
				s += A(r0[i+2]) * k2
				s += A(r1[i]) * k3
				s += A(r1[i+1]) * k4
				s += A(r1[i+2]) * k5
				s += A(r2[i]) * k6
				s += A(r2[i+1]) * k7
				s += A(r2[i+2]) * k8
				o[i] = s
			}
			return
		}
	}
	for i := range o {
		s := bias
		for ky := 0; ky*k < len(ker); ky++ {
			row := in[i*stride+ky*w:]
			for kx, kv := range ker[ky*k : (ky+1)*k] {
				s += A(row[kx]) * A(kv)
			}
		}
		o[i] = s
	}
}

// inside returns the half-open range of the k taps starting at input
// position i0 that fall inside [0, size).
//
//skynet:hotpath
func inside(i0, k, size int) (lo, hi int) {
	return max(0, -i0), min(k, size-i0)
}

// interior returns the half-open range of output positions along one axis
// whose k taps all fall inside [0, size).
//
//skynet:hotpath
func interior(size, out, k, stride, pad int) (lo, hi int) {
	lo = min(out, (pad+stride-1)/stride)
	hi = lo
	if last := size - k + pad; last >= 0 {
		hi = max(lo, min(out, last/stride+1))
	}
	return lo, hi
}

// dwPixel is one depth-wise output whose k×k window, with top-left input
// corner (iy0, ix0), may hang over the image edge: only the taps inside are
// visited.
//
//skynet:hotpath
func dwPixel[E float32 | int8, A float32 | int32](in, ker []E, bias A, h, w, k, iy0, ix0 int) A {
	ky0, ky1 := inside(iy0, k, h)
	kx0, kx1 := inside(ix0, k, w)
	s := bias
	for ky := ky0; ky < ky1; ky++ {
		row, taps := in[(iy0+ky)*w:(iy0+ky+1)*w], ker[ky*k:(ky+1)*k]
		for kx := kx0; kx < kx1; kx++ {
			s += A(row[ix0+kx]) * A(taps[kx])
		}
	}
	return s
}

func (d *DWConv3) Backward(dout *tensor.Tensor) []*tensor.Tensor {
	x := needTrainForward(d.x, "dwconv3")
	dx := tensor.New(d.lastN, d.C, d.inH, d.inW)
	// Parallel over channels, with the batch loop inside: every write
	// target — Weight.G[ch], Bias.G[ch] and the (i, ch) planes of dx — is
	// private to one channel, so this partitioning is race-free without
	// staging (contrast Conv2D.Backward, where the whole weight tensor is
	// shared across the batch and per-image contributions must be merged).
	parallelFor(d.C, dwGrads{d, x, dout, dx}, dwGrads.channel)
	return []*tensor.Tensor{dx}
}

// dwGrads is the operands of one Backward, as its loop body takes them.
type dwGrads struct {
	d           *DWConv3
	x, dout, dx *tensor.Tensor
}

// channel is Backward's loop body: channel ch of every image.
func (a dwGrads) channel(_, ch int) {
	d, x, dout, dx := a.d, a.x, a.dout, a.dx
	n, h, w := d.lastN, d.inH, d.inW
	ker := d.Weight.W.Data[ch*d.K*d.K:]
	dker := d.Weight.G.Data[ch*d.K*d.K:]
	var dbias float32
	for i := 0; i < n; i++ {
		in := x.Data[(i*d.C+ch)*h*w:]
		dob := dout.Data[(i*d.C+ch)*d.outH*d.outW:]
		dxb := dx.Data[(i*d.C+ch)*h*w:]
		oi := 0
		for oy := 0; oy < d.outH; oy++ {
			for ox := 0; ox < d.outW; ox++ {
				g := dob[oi]
				oi++
				if g == 0 {
					continue
				}
				for ky := 0; ky < d.K; ky++ {
					iy := oy*d.Stride - d.Pad + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < d.K; kx++ {
						ix := ox*d.Stride - d.Pad + kx
						if ix < 0 || ix >= w {
							continue
						}
						dker[ky*d.K+kx] += g * in[iy*w+ix]
						dxb[iy*w+ix] += g * ker[ky*d.K+kx]
					}
				}
			}
		}
		if d.Bias != nil {
			for _, g := range dout.Data[(i*d.C+ch)*d.outH*d.outW : (i*d.C+ch+1)*d.outH*d.outW] {
				dbias += g
			}
		}
	}
	if d.Bias != nil {
		d.Bias.G.Data[ch] += dbias
	}
}

// Cost reports MACs and bytes moved for the most recent forward pass.
func (d *DWConv3) Cost() (macs, bytes int64) {
	spatial := int64(d.outH) * int64(d.outW)
	n := int64(d.lastN)
	macs = n * int64(d.C) * int64(d.K*d.K) * spatial
	wBytes := int64(d.Weight.W.Len()) * 4
	inBytes := n * int64(d.C) * int64(d.inH*d.inW) * 4
	outBytes := n * int64(d.C) * spatial * 4
	return macs, wBytes + inBytes + outBytes
}
