package nn

import "skynet/internal/tensor"

// ReLU is the rectified linear activation max(0, x). When Cap > 0 the
// output is additionally clipped to [0, Cap]; NewReLU6 uses Cap = 6, the
// activation the paper adopts because its bounded range lets intermediate
// feature maps be represented with fewer bits on embedded hardware (§5.2).
type ReLU struct {
	Cap float32 // 0 means unbounded
}

// NewReLU returns an unbounded rectifier.
func NewReLU() *ReLU { return &ReLU{} }

// NewReLU6 returns the ReLU6 activation, clip(x, 0, 6).
func NewReLU6() *ReLU { return &ReLU{Cap: 6} }

func (r *ReLU) Name() string {
	if r.Cap > 0 {
		return "relu6"
	}
	return "relu"
}

func (r *ReLU) Params() []*Param { return nil }

func (r *ReLU) Forward(xs []*tensor.Tensor, train bool) *tensor.Tensor {
	x := one(xs, r.Name())
	out := tensor.New(x.Shape()...)
	reluInto(out.Data, x.Data, r.Cap)
	return out
}

// reluInto writes the rectifier of src, clipped to cap when cap > 0, to dst.
//
//skynet:hotpath
func reluInto(dst, src []float32, cap float32) {
	tensor.ReLUClampRow(dst, src, cap)
}

// Backward passes the gradient where Forward left the value alone: inside
// (0, Cap), and at NaN.
func (r *ReLU) Backward(xs []*tensor.Tensor, dout *tensor.Tensor) []*tensor.Tensor {
	x := one(xs, r.Name())
	dx := dout.Clone()
	for i, v := range x.Data {
		if v <= 0 || r.Cap > 0 && v >= r.Cap {
			dx.Data[i] = 0
		}
	}
	return []*tensor.Tensor{dx}
}
