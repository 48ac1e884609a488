package nn

import (
	"math"

	"skynet/internal/tensor"
)

// SGD is stochastic gradient descent with classical momentum and L2 weight
// decay — the optimizer the paper uses for SkyNet training (§6.1).
type SGD struct {
	LR          float32
	Momentum    float32
	WeightDecay float32
	vel         map[*Param]*tensor.Tensor
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float32) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay,
		vel: make(map[*Param]*tensor.Tensor)}
}

// Step applies one update to every parameter using its accumulated
// gradient, then clears the gradients.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		v, ok := s.vel[p]
		if !ok {
			v = tensor.New(p.W.Shape()...)
			s.vel[p] = v
		}
		grad := p.Grad().Data // zero where no backward reached p
		for i := range p.W.Data {
			g := grad[i] + s.WeightDecay*p.W.Data[i]
			v.Data[i] = s.Momentum*v.Data[i] - s.LR*g
			p.W.Data[i] += v.Data[i]
		}
		p.ZeroGrad()
	}
}

// ClipGradNorm rescales all parameter gradients so that their global
// Euclidean norm does not exceed maxNorm, the standard stabilizer for
// exploding detection-loss gradients early in training. It returns the
// pre-clip norm.
func ClipGradNorm(params []*Param, maxNorm float32) float32 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad().Data {
			sq += float64(g) * float64(g)
		}
	}
	norm := float32(math.Sqrt(sq))
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			p.Grad().Scale(scale)
		}
	}
	return norm
}

// LRSchedule decays a learning rate geometrically from Start to End over
// the given number of epochs, matching the paper's "learning rate starting
// from 1e-4 to 1e-7" training recipe.
type LRSchedule struct {
	Start, End float32
	Epochs     int
}

// At returns the learning rate for the given zero-based epoch.
func (s LRSchedule) At(epoch int) float32 {
	// A constant schedule (Start == End) needs no case of its own: the ratio
	// is 1, and 1 to any power is exactly 1.
	if s.Epochs <= 1 || s.Start <= 0 {
		return s.Start
	}
	t := float64(epoch) / float64(s.Epochs-1)
	if t > 1 {
		t = 1
	}
	// geometric interpolation
	ratio := float64(s.End) / float64(s.Start)
	return s.Start * float32(math.Pow(ratio, t))
}
