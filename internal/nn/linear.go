package nn

import (
	"fmt"
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

// Forward runs forwardSample on each sample of the batch in turn.
func (l *Linear) Forward(xs []*tensor.Tensor, train bool) *tensor.Tensor {
	x := one(xs, "linear")
	l.expect(x.Shape())
	l.x = cacheIf(train, x)
	n := x.Dim(0)
	l.lastN = n
	out := tensor.New(n, l.Out)
	for i := 0; i < n; i++ {
		l.forwardSample(out.Data[i*l.Out:(i+1)*l.Out], x.Data[i*l.In:(i+1)*l.In])
	}
	return out
}

// expect validates an [N, In] input shape.
func (l *Linear) expect(shape []int) {
	if len(shape) != 2 || shape[1] != l.In {
		panic(fmt.Sprintf("nn: linear expects [N, %d] input, got shape %v", l.In, shape))
	}
}

// forwardSample computes one sample's Weight·x + Bias into dst: a GEMM of Out
// rows, one column and In terms, the bias its row epilogue — the call a 1×1
// Conv2D makes per image — so that a sample's outputs do not depend on its
// batch-mates, and the layer walk and the inference plan, which both make it,
// agree bit for bit. A one-column product never splits across workers;
// BandOf says so, which lets a lane make the call.
//
//skynet:hotpath
func (l *Linear) forwardSample(dst, src []float32) {
	tensor.MatMulRowEpilogueInto(dst, l.Weight.W.Data, src, tensor.RowProduct{M: l.Out, N: 1, K: l.In, BandOf: 1,
		Ep: tensor.RowEpilogue{Bias: l.Bias.W.Data}})
}

func (l *Linear) Backward(dout *tensor.Tensor) []*tensor.Tensor {
	n := needTrainForward(l.x, "linear").Dim(0)
	// dW += doutᵀ · x ; computed as (dout)ᵀ rows over x.
	tensor.MatMulTransposeAAddInto(l.Weight.Grad(), dout, l.x)
	for i := 0; i < n; i++ {
		row := dout.Data[i*l.Out : (i+1)*l.Out]
		for j, g := range row {
			l.Bias.Grad().Data[j] += g
		}
	}
	dx := tensor.New(n, l.In)
	tensor.MatMulInto(dx, dout, l.Weight.W)
	return []*tensor.Tensor{dx}
}

// Cost reports MACs and bytes moved for the most recent forward pass.
func (l *Linear) Cost() (macs, bytes int64) { return l.cost(l.lastN) }

// cost reports the MACs of a forward of n samples and the bytes it moves: the
// weights, its input and its output, in float32.
func (l *Linear) cost(n int) (macs, bytes int64) {
	macs = int64(n) * int64(l.In) * int64(l.Out)
	return macs, int64(l.Weight.W.Len())*4 + int64(n)*int64(l.In+l.Out)*4
}
