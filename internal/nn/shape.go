package nn

import (
	"fmt"

	"skynet/internal/tensor"
)

// Concat concatenates its inputs along the channel dimension. SkyNet models
// B and C use it to merge the reordered Bundle-3 bypass with the Bundle-5
// output before the final Bundle (Figure 4).
type Concat struct{}

// NewConcat returns a channel-concatenation layer.
func NewConcat() *Concat { return &Concat{} }

func (c *Concat) Name() string     { return "concat" }
func (c *Concat) Params() []*Param { return nil }

func (c *Concat) Forward(xs []*tensor.Tensor, train bool) *tensor.Tensor {
	if len(xs) < 2 {
		panic("nn: concat expects at least 2 inputs")
	}
	shapes := make([][]int, len(xs))
	srcs := make([][]float32, len(xs))
	for k, x := range xs {
		shapes[k], srcs[k] = x.Shape(), x.Data
	}
	out := tensor.New(concatShape(shapes)...)
	concatInto(out.Data, srcs, out.Dim(0))
	return out
}

// concatShape validates the input shapes of a channel concatenation and
// returns its output shape.
func concatShape(shapes [][]int) []int {
	first := shapes[0]
	total := 0
	for _, shp := range shapes {
		expect4D(shp, 0, "concat")
		if shp[0] != first[0] || shp[2] != first[2] || shp[3] != first[3] {
			panic(fmt.Sprintf("nn: concat spatial/batch mismatch: %v vs %v", first, shp))
		}
		total += shp[1]
	}
	return []int{first[0], total, first[2], first[3]}
}

// concatInto interleaves, image by image, the blocks of the n-image sources
// into dst: a source's block is one image's, len(src)/n elements.
//
//skynet:hotpath
func concatInto(dst []float32, srcs [][]float32, n int) {
	off := 0
	for i := 0; i < n; i++ {
		for _, src := range srcs {
			sz := len(src) / n
			copy(dst[off:off+sz], src[i*sz:(i+1)*sz])
			off += sz
		}
	}
}

// Backward deals dout's channels back out to the inputs xs, as concatInto
// joined them.
func (c *Concat) Backward(xs []*tensor.Tensor, dout *tensor.Tensor) []*tensor.Tensor {
	n := dout.Dim(0)
	dxs := make([]*tensor.Tensor, len(xs))
	for k, x := range xs {
		dxs[k] = tensor.New(x.Shape()...)
	}
	off := 0
	for i := 0; i < n; i++ {
		for _, dx := range dxs {
			sz := dx.Len() / n
			copy(dx.Data[i*sz:(i+1)*sz], dout.Data[off:off+sz])
			off += sz
		}
	}
	return dxs
}

// Reorg is the feature-map reordering of Figure 5 (space-to-depth,
// Redmon & Farhadi 2017): it rearranges an [N,C,H,W] tensor into
// [N, C*S², H/S, W/S] by moving each S×S spatial block into the channel
// dimension. Unlike pooling it loses no information — the operation is a
// bijection, so small-object features survive the resolution drop along the
// SkyNet bypass. Output channel (dy*S+dx)*C + c at (y,x) holds input channel
// c at (y*S+dy, x*S+dx).
type Reorg struct {
	S int
}

// NewReorg returns a space-to-depth layer with block size s.
func NewReorg(s int) *Reorg { return &Reorg{S: s} }

func (r *Reorg) Name() string     { return "reorg" }
func (r *Reorg) Params() []*Param { return nil }

func (r *Reorg) Forward(xs []*tensor.Tensor, train bool) *tensor.Tensor {
	x := one(xs, "reorg")
	out := tensor.New(r.outShape(x.Shape())...)
	ReorgInto(out.Data, x.Data, x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3), r.S)
	return out
}

// outShape validates an input shape and returns the reordered one.
func (r *Reorg) outShape(in []int) []int {
	expect4D(in, 0, "reorg")
	if in[2]%r.S != 0 || in[3]%r.S != 0 {
		panic(fmt.Sprintf("nn: reorg input %v not divisible by block %d", in, r.S))
	}
	return []int{in[0], in[1] * r.S * r.S, in[2] / r.S, in[3] / r.S}
}

// ReorgInto moves each s×s spatial block of the n images [c,h,w] of src
// into the channel dimension of dst — float32 feature maps here, int8 codes
// in internal/quant.
//
//skynet:hotpath
func ReorgInto[T any](dst, src []T, n, c, h, w, s int) {
	per := c * h * w
	for i := 0; i < n; i++ {
		ReorgRows(dst[i*per:(i+1)*per], src[i*per:(i+1)*per], c, h, w, s, 0, h)
	}
}

// ReorgRows is the one reorder loop: rows [r0, r0+rows) of an image [c,h,w],
// which src holds alone as [c, rows·w], land in their places in the image's
// reordered map dst, [c·s², h/s, w/s]. It walks the source in order, each row
// once, dealing it out to the s planes it feeds: at s = 2 the vector kernel's
// share in one pass (tensor.Deinterleave), the rest — all of it at any other
// s, or with no kernel — in the scalar loop. A whole image is one call
// (ReorgInto); a Bundle step calls it on each band of its product (band.go),
// which is how the bypass gets reordered without the map before it existing.
//
//skynet:hotpath
func ReorgRows[T any](dst, src []T, c, h, w, s, r0, rows int) {
	oh, ow := h/s, w/s
	for ch := 0; ch < c; ch++ {
		for r := 0; r < rows; r++ {
			row := src[(ch*rows+r)*w:][:w]
			dy, yo, n := (r0+r)%s, (r0+r)/s, 0
			if s == 2 {
				n = tensor.Deinterleave(dst[((dy*2*c+ch)*oh+yo)*ow:][:ow], dst[(((dy*2+1)*c+ch)*oh+yo)*ow:][:ow], row)
			}
			for dx := 0; dx < s; dx++ {
				d := dst[(((dy*s+dx)*c+ch)*oh+yo)*ow:][:ow]
				for xo := n; xo < len(d); xo++ {
					d[xo] = row[xo*s+dx]
				}
			}
		}
	}
}

func (r *Reorg) Backward(xs []*tensor.Tensor, dout *tensor.Tensor) []*tensor.Tensor {
	x := one(xs, "reorg")
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := h/r.S, w/r.S
	dx := tensor.New(n, c, h, w)
	for i := 0; i < n; i++ {
		for dy := 0; dy < r.S; dy++ {
			for dxo := 0; dxo < r.S; dxo++ {
				for ch := 0; ch < c; ch++ {
					oc := (dy*r.S+dxo)*c + ch
					for y := 0; y < oh; y++ {
						dstBase := ((i*c+ch)*h+(y*r.S+dy))*w + dxo
						srcBase := ((i*c*r.S*r.S+oc)*oh + y) * ow
						for xo := 0; xo < ow; xo++ {
							dx.Data[dstBase+xo*r.S] = dout.Data[srcBase+xo]
						}
					}
				}
			}
		}
	}
	return []*tensor.Tensor{dx}
}

// Flatten reshapes [N,C,H,W] to [N, C*H*W] for fully-connected heads.
type Flatten struct{}

// NewFlatten returns a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

func (f *Flatten) Name() string     { return "flatten" }
func (f *Flatten) Params() []*Param { return nil }

func (f *Flatten) Forward(xs []*tensor.Tensor, train bool) *tensor.Tensor {
	x := one(xs, "flatten")
	n := x.Dim(0)
	return x.Clone().Reshape(n, x.Len()/n)
}

func (f *Flatten) Backward(xs []*tensor.Tensor, dout *tensor.Tensor) []*tensor.Tensor {
	return []*tensor.Tensor{dout.Clone().Reshape(one(xs, "flatten").Shape()...)}
}

// Add sums two same-shaped inputs elementwise — the residual connection of
// the ResNet baselines.
type Add struct{}

// NewAdd returns an elementwise-addition layer.
func NewAdd() *Add { return &Add{} }

func (a *Add) Name() string     { return "add" }
func (a *Add) Params() []*Param { return nil }

func (a *Add) Forward(xs []*tensor.Tensor, train bool) *tensor.Tensor {
	if len(xs) != 2 {
		panic("nn: add expects exactly 2 inputs")
	}
	if !xs[0].SameShape(xs[1]) {
		panic(fmt.Sprintf("nn: add of shapes %v and %v", xs[0].Shape(), xs[1].Shape()))
	}
	out := tensor.New(xs[0].Shape()...)
	addInto(out.Data, xs[0].Data, xs[1].Data)
	return out
}

// addInto writes a + b to dst.
//
//skynet:hotpath
func addInto(dst, a, b []float32) {
	for i, v := range a {
		dst[i] = v + b[i]
	}
}

func (a *Add) Backward(xs []*tensor.Tensor, dout *tensor.Tensor) []*tensor.Tensor {
	return []*tensor.Tensor{dout.Clone(), dout.Clone()}
}
