package nn

import (
	"math"

	"skynet/internal/tensor"
)

// BatchNorm normalizes each channel of an [N,C,H,W] input over the batch
// and spatial dimensions (Ioffe & Szegedy, 2015), with learnable per-channel
// scale (Gamma) and shift (Beta). During evaluation it uses running
// estimates of the batch statistics accumulated with exponential decay
// Momentum.
type BatchNorm struct {
	C        int
	Eps      float32
	Momentum float32
	Gamma    *Param
	Beta     *Param
	// Running statistics used in eval mode; exported for serialization.
	RunMean *tensor.Tensor
	RunVar  *tensor.Tensor
	// caches from the last training forward
	xhat   *tensor.Tensor
	invStd []float32
	lastN  int
	lastHW int
}

// NewBatchNorm constructs a batch-normalization layer over c channels.
func NewBatchNorm(c int) *BatchNorm {
	bn := &BatchNorm{C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma: NewParam("gamma", c), Beta: NewParam("beta", c),
		RunMean: tensor.New(c), RunVar: tensor.New(c)}
	bn.Gamma.W.Fill(1)
	bn.RunVar.Fill(1)
	return bn
}

func (b *BatchNorm) Name() string     { return "batchnorm" }
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

func (b *BatchNorm) Forward(xs []*tensor.Tensor, train bool) *tensor.Tensor {
	x := one(xs, "batchnorm")
	expect4D(x.Shape(), b.C, "batchnorm")
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	hw := h * w
	out := tensor.New(n, b.C, h, w)
	if train {
		b.xhat = tensor.New(n, b.C, h, w)
		if cap(b.invStd) < b.C {
			b.invStd = make([]float32, b.C)
		}
		b.invStd = b.invStd[:b.C]
		b.lastN, b.lastHW = n, hw
		cnt := float32(n * hw)
		for c := 0; c < b.C; c++ {
			var mean float64
			for i := 0; i < n; i++ {
				base := (i*b.C + c) * hw
				for j := 0; j < hw; j++ {
					mean += float64(x.Data[base+j])
				}
			}
			mean /= float64(cnt)
			var variance float64
			for i := 0; i < n; i++ {
				base := (i*b.C + c) * hw
				for j := 0; j < hw; j++ {
					d := float64(x.Data[base+j]) - mean
					variance += d * d
				}
			}
			variance /= float64(cnt)
			inv := float32(1.0 / math.Sqrt(variance+float64(b.Eps)))
			b.invStd[c] = inv
			g, bt := b.Gamma.W.Data[c], b.Beta.W.Data[c]
			for i := 0; i < n; i++ {
				base := (i*b.C + c) * hw
				for j := 0; j < hw; j++ {
					xh := (x.Data[base+j] - float32(mean)) * inv
					b.xhat.Data[base+j] = xh
					out.Data[base+j] = g*xh + bt
				}
			}
			b.RunMean.Data[c] = (1-b.Momentum)*b.RunMean.Data[c] + b.Momentum*float32(mean)
			b.RunVar.Data[c] = (1-b.Momentum)*b.RunVar.Data[c] + b.Momentum*float32(variance)
		}
		return out
	}
	b.xhat = nil // what a training forward cached for Backward no longer matches
	b.evalInto(out.Data, x.Data, n, hw)
	return out
}

// evalInv returns channel c's 1/sqrt(var+eps) from the running variance. It
// is recomputed on every forward, never stored, so the statistics can change
// under a caller (training, a Load) without anything going stale.
//
//skynet:hotpath
func (b *BatchNorm) evalInv(c int) float32 {
	return float32(1.0 / math.Sqrt(float64(b.RunVar.Data[c])+float64(b.Eps)))
}

// evalInto normalizes the n images [C, hw] of src into dst with the running
// statistics (eval mode). It writes nothing on the layer: the plan's lanes
// call it side by side.
//
//skynet:hotpath
func (b *BatchNorm) evalInto(dst, src []float32, n, hw int) {
	for c := 0; c < b.C; c++ {
		inv, mean := b.evalInv(c), b.RunMean.Data[c]
		g, bt := b.Gamma.W.Data[c], b.Beta.W.Data[c]
		for i := 0; i < n; i++ {
			base := (i*b.C + c) * hw
			tensor.BNEvalRow(dst[base:base+hw], src[base:base+hw], g, mean, inv, bt)
		}
	}
}

func (b *BatchNorm) Backward(dout *tensor.Tensor) []*tensor.Tensor {
	needTrainForward(b.xhat, "batchnorm")
	n, hw := b.lastN, b.lastHW
	cnt := float32(n * hw)
	dx := tensor.New(dout.Shape()...)
	for c := 0; c < b.C; c++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			base := (i*b.C + c) * hw
			for j := 0; j < hw; j++ {
				dy := float64(dout.Data[base+j])
				sumDy += dy
				sumDyXhat += dy * float64(b.xhat.Data[base+j])
			}
		}
		b.Beta.G.Data[c] += float32(sumDy)
		b.Gamma.G.Data[c] += float32(sumDyXhat)
		g := b.Gamma.W.Data[c]
		inv := b.invStd[c]
		for i := 0; i < n; i++ {
			base := (i*b.C + c) * hw
			for j := 0; j < hw; j++ {
				dy := dout.Data[base+j]
				xh := b.xhat.Data[base+j]
				dx.Data[base+j] = g * inv * (dy - float32(sumDy)/cnt - xh*float32(sumDyXhat)/cnt)
			}
		}
	}
	return []*tensor.Tensor{dx}
}
