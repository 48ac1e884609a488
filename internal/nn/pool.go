package nn

import (
	"math"

	"skynet/internal/tensor"
)

// MaxPool is a K×K max pooling with stride K (non-overlapping), the 2×2
// pooling used between SkyNet Bundles. Inputs whose spatial size is not a
// multiple of K are cropped at the bottom/right edge, matching the common
// floor-mode convention.
type MaxPool struct {
	K int
	x *tensor.Tensor // input of the last training forward, for Backward
}

// NewMaxPool returns a K×K/stride-K max-pool layer.
func NewMaxPool(k int) *MaxPool { return &MaxPool{K: k} }

func (m *MaxPool) Name() string     { return "maxpool" }
func (m *MaxPool) Params() []*Param { return nil }

func (m *MaxPool) Forward(xs []*tensor.Tensor, train bool) *tensor.Tensor {
	x := one(xs, "maxpool")
	expect4D(x.Shape(), 0, "maxpool")
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := tensor.New(n, c, h/m.K, w/m.K)
	maxPoolInto(out.Data, x.Data, n*c, h, w, m.K)
	m.x = cacheIf(train, x)
	return out
}

// maxPoolInto pools each of the [h,w] planes of src into dst. A window's
// maximum starts from its first element and is replaced only by a strictly
// greater one, in row-major order, so a leading NaN stays and a later one
// is skipped. The running maximum is carried as a bit pattern next to its
// value: replacing it is then a conditional move, not a branch that
// mispredicts on every other element. The leading outputs of a 2×2 row go to
// the vector kernel where there is one (tensor.MaxPool2Row, the same rule).
//
//skynet:hotpath
func maxPoolInto(dst, src []float32, planes, h, w, k int) {
	outH, outW := h/k, w/k
	for p := 0; p < planes; p++ {
		in := src[p*h*w : (p+1)*h*w]
		out := dst[p*outH*outW : (p+1)*outH*outW]
		for oy := 0; oy < outH; oy++ {
			orow := out[oy*outW : (oy+1)*outW]
			if k == 2 { // SkyNet's pooling, unrolled
				r0, r1 := in[2*oy*w:][:2*outW], in[(2*oy+1)*w:][:2*outW]
				for ox := tensor.MaxPool2Row(orow, r0, r1); ox < len(orow); ox++ {
					best, bits := maxStep(r0[2*ox], math.Float32bits(r0[2*ox]), r0[2*ox+1])
					best, bits = maxStep(best, bits, r1[2*ox])
					orow[ox], _ = maxStep(best, bits, r1[2*ox+1])
				}
				continue
			}
			for ox := range orow {
				best := in[oy*k*w+ox*k]
				bits := math.Float32bits(best)
				for ky := 0; ky < k; ky++ {
					for _, v := range in[(oy*k+ky)*w+ox*k:][:k] {
						best, bits = maxStep(best, bits, v)
					}
				}
				orow[ox] = best
			}
		}
	}
}

// maxStep advances a window's running maximum — best, with its bit pattern
// bits — past v: v replaces it only when strictly greater.
//
//skynet:hotpath
func maxStep(best float32, bits uint32, v float32) (float32, uint32) {
	vb := math.Float32bits(v)
	if v > best {
		bits = vb
	}
	return math.Float32frombits(bits), bits
}

// Backward routes each output's gradient to the input element Forward took
// as the window's maximum: the first of the greatest, by the same scan.
func (m *MaxPool) Backward(dout *tensor.Tensor) []*tensor.Tensor {
	x := needTrainForward(m.x, "maxpool")
	c, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	outH, outW := h/m.K, w/m.K
	dx := tensor.New(x.Shape()...)
	oi := 0
	for p := 0; p < x.Dim(0)*c; p++ {
		base := p * h * w
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				bestIdx := base + oy*m.K*w + ox*m.K
				for ky := 0; ky < m.K; ky++ {
					rowBase := base + (oy*m.K+ky)*w + ox*m.K
					for kx := 0; kx < m.K; kx++ {
						if x.Data[rowBase+kx] > x.Data[bestIdx] {
							bestIdx = rowBase + kx
						}
					}
				}
				dx.Data[bestIdx] += dout.Data[oi]
				oi++
			}
		}
	}
	return []*tensor.Tensor{dx}
}
