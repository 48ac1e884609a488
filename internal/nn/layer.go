// Package nn implements the neural-network layers, containers, losses and
// optimizers used throughout the SkyNet reproduction: standard, depth-wise
// and point-wise convolutions, batch normalization, the ReLU family
// (including the ReLU6 activation the paper adopts for hardware efficiency),
// max pooling, channel concatenation and the feature-map reordering
// (space-to-depth) operation of Figure 5, plus SGD training and gob-based
// model serialization.
//
// Every layer implements full forward and backward passes so that networks
// are trained for real; gradients are validated against finite differences
// in the test suite. The Backward convention is: gradients accumulate into
// Param.G, and one Backward must follow each Forward in LIFO order (the
// Graph container enforces this).
package nn

import (
	"fmt"

	"skynet/internal/tensor"
)

// Param is a learnable tensor together with its accumulated gradient.
type Param struct {
	Name string
	W    *tensor.Tensor
	// G is the accumulated gradient, nil — zero — until a backward first
	// reaches the parameter (Grad): an inference graph holds none.
	G *tensor.Tensor
}

// NewParam allocates a parameter with the given shape, its gradient not yet.
func NewParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...)}
}

// Grad returns G, allocating it, zero, on first use: a layer's Backward, before
// any parallel section of its own, and SGD, for a parameter no backward reached.
func (p *Param) Grad() *tensor.Tensor {
	if p.G == nil {
		p.G = tensor.New(p.W.Shape()...)
	}
	return p.G
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad().Zero() }

// Layer is a differentiable network building block. Forward consumes one or
// more input tensors (most layers take exactly one) and produces one output.
// Backward consumes the gradient of the loss with respect to that output and
// returns the gradients with respect to each input, accumulating parameter
// gradients into Params() along the way. Layers cache whatever they need
// from the most recent training Forward, so calls must be paired
// Forward(xs, true)→Backward.
type Layer interface {
	// Name returns a short human-readable identifier (e.g. "conv3x3").
	Name() string
	// Forward runs the layer. train selects training behaviour for layers
	// with train/eval modes (BatchNorm).
	Forward(xs []*tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates dout to the layer inputs, accumulating parameter
	// gradients.
	Backward(dout *tensor.Tensor) []*tensor.Tensor
	// Params returns the learnable parameters (possibly none).
	Params() []*Param
}

// Coster is implemented by the layers Costs prices: Conv2D, DWConv3 and
// Linear. Cost returns the multiply-accumulate count and the parameter and
// activation bytes of the most recent Forward, at its batch and input size.
// Only the benchmark module (bench/) still reads it; pricing reads Costs,
// which no forward changes. It goes, with Graph.OutShapes, once bench/ reads
// Costs too.
type Coster interface {
	Cost() (macs, bytes int64)
}

// one unwraps a single-input layer's argument list.
//
//skynet:hotpath
func one(xs []*tensor.Tensor, name string) *tensor.Tensor {
	if len(xs) != 1 {
		panic(fmt.Sprintf("nn: layer %s expects exactly 1 input, got %d", name, len(xs)))
	}
	return xs[0]
}

// expect4D validates an [N,C,H,W] input shape with the given channel count.
//
//skynet:hotpath
func expect4D(shape []int, wantC int, name string) {
	if len(shape) != 4 {
		panic(fmt.Sprintf("nn: layer %s expects [N,C,H,W] input, got shape %v", name, shape))
	}
	if wantC > 0 && shape[1] != wantC {
		panic(fmt.Sprintf("nn: layer %s expects %d input channels, got %d", name, wantC, shape[1]))
	}
}

// cacheIf is what a layer keeps of its input for Backward: the tensor after
// a training forward, nothing after an inference one — which therefore pins
// no batch, and lets a Backward that does not follow a training forward
// fail in needTrainForward and not read an older pass's input.
//
//skynet:hotpath
func cacheIf(train bool, x *tensor.Tensor) *tensor.Tensor {
	if train {
		return x
	}
	return nil
}

// needTrainForward returns the input cached by cacheIf for a Backward.
func needTrainForward(x *tensor.Tensor, name string) *tensor.Tensor {
	if x == nil {
		panic(fmt.Sprintf("nn: layer %s: Backward needs a preceding Forward(x, true)", name))
	}
	return x
}
