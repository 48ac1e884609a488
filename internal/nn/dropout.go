package nn

import (
	"math/rand"

	"skynet/internal/tensor"
)

// Dropout zeroes each activation with probability P during training and
// scales the survivors by 1/(1-P) (inverted dropout), passing inputs
// through unchanged in eval mode. AlexNet's fully-connected layers use it
// (Krizhevsky et al., 2012); compact backbones like SkyNet do not need it.
//
// The mask of the last training draw stays on the layer: it is the draw, the
// layer's RNG state, not a copy of the batch, and no eval forward changes it.
type Dropout struct {
	P    float64
	rng  *rand.Rand
	mask []uint8 // the last training draw's: 1 keeps an element, 0 drops it
}

// NewDropout returns a dropout layer with drop probability p.
func NewDropout(seed int64, p float64) *Dropout {
	return &Dropout{P: p, rng: rand.New(rand.NewSource(seed))}
}

func (d *Dropout) Name() string     { return "dropout" }
func (d *Dropout) Params() []*Param { return nil }

func (d *Dropout) Forward(xs []*tensor.Tensor, train bool) *tensor.Tensor {
	x := one(xs, "dropout")
	out := x.Clone()
	if !train || d.P <= 0 {
		return out
	}
	if cap(d.mask) < x.Len() {
		d.mask = make([]uint8, x.Len())
	}
	d.mask = d.mask[:x.Len()]
	scale := float32(1 / (1 - d.P))
	for i := range out.Data {
		if d.rng.Float64() < d.P {
			out.Data[i] = 0
			d.mask[i] = 0
		} else {
			out.Data[i] *= scale
			d.mask[i] = 1
		}
	}
	return out
}

// Backward applies the last training draw's mask and scale to dout; with no
// draw (P is 0, or no training forward has run) it passes dout through.
func (d *Dropout) Backward(xs []*tensor.Tensor, dout *tensor.Tensor) []*tensor.Tensor {
	dx := dout.Clone()
	if d.P <= 0 || d.mask == nil {
		return []*tensor.Tensor{dx}
	}
	scale := float32(1 / (1 - d.P))
	for i := range dx.Data {
		if d.mask[i] == 0 {
			dx.Data[i] = 0
		} else {
			dx.Data[i] *= scale
		}
	}
	return []*tensor.Tensor{dx}
}
