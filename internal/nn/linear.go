package nn

import (
	"math/rand"

	"skynet/internal/tensor"
)

// Linear is a fully-connected layer over [N, In] inputs, used by the
// AlexNet/VGG classifier baselines.
type Linear struct {
	In, Out int
	Weight  *Param         // [Out, In]
	Bias    *Param         // [Out]
	x       *tensor.Tensor // input of the last training forward, for Backward
	lastN   int            // batch size of the last forward, for Cost
}

// NewLinear constructs a fully-connected layer with Xavier initialization.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	l := &Linear{In: in, Out: out,
		Weight: NewParam("weight", out, in), Bias: NewParam("bias", out)}
	l.Weight.W.XavierInit(rng, in, out)
	return l
}

func (l *Linear) Name() string     { return "linear" }
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

func (l *Linear) Forward(xs []*tensor.Tensor, train bool) *tensor.Tensor {
	x := one(xs, "linear")
	if x.Rank() != 2 || x.Dim(1) != l.In {
		panic("nn: linear expects [N, In] input")
	}
	l.x = cacheIf(train, x)
	n := x.Dim(0)
	l.lastN = n
	out := tensor.New(n, l.Out)
	// out = x · Wᵀ + bias, with the bias add fused into the GEMM epilogue.
	tensor.MatMulTransposeBColBiasInto(out, x, l.Weight.W, l.Bias.W)
	return out
}

func (l *Linear) Backward(dout *tensor.Tensor) []*tensor.Tensor {
	n := needTrainForward(l.x, "linear").Dim(0)
	// dW += doutᵀ · x ; computed as (dout)ᵀ rows over x.
	tensor.MatMulTransposeAAddInto(l.Weight.G, dout, l.x)
	for i := 0; i < n; i++ {
		row := dout.Data[i*l.Out : (i+1)*l.Out]
		for j, g := range row {
			l.Bias.G.Data[j] += g
		}
	}
	dx := tensor.New(n, l.In)
	tensor.MatMulInto(dx, dout, l.Weight.W)
	return []*tensor.Tensor{dx}
}

// Cost reports MACs and bytes moved for the most recent forward pass.
func (l *Linear) Cost() (macs, bytes int64) {
	n := int64(l.lastN)
	macs = n * int64(l.In) * int64(l.Out)
	return macs, int64(l.Weight.W.Len())*4 + n*int64(l.In+l.Out)*4
}
