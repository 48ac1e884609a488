package nn

import (
	"fmt"
	"sync"

	"skynet/internal/tensor"
)

// GraphInput is the pseudo-index denoting the graph's external input when
// used in a node's input list.
const GraphInput = -1

// Node is one layer in a Graph together with the indices of the nodes that
// feed it (GraphInput for the external input).
type Node struct {
	Layer  Layer
	Inputs []int
}

// Graph is a single-input, single-output DAG of layers in topological
// (insertion) order. It covers both plain chains (Sequential networks) and
// the bypass topology of SkyNet models B/C.
//
// Forward(x, true) walks the layers and keeps the walk — its input and every
// node's output — as the graph's tape, which Backward takes back and drops.
// Forward(x, false) runs the plan for x's sample shape (plan.go) on an
// executor, a PlanCache the graph keeps on a free list: it writes no layer,
// walks the plan's one step list as lanes — each worker its own samples, on
// its own one-sample region of the executor's arena — and keeps every feature
// map there but for the maps inside a Bundle (DW → PW → BN → act → pool), one
// step holding them a band of rows at a time (band.go); it returns bitwise
// what walking the layers in eval mode would, in a fresh tensor the caller
// owns (ForwardSamples: in the tensors it is lent). No inference path walks
// the layers: the tests keep that walk as the plan's oracle, and a caller that
// must see or rewrite every map runs a plan compiled under a mask marking
// every node with an observer (Plan.RunInto).
// Inference forwards are safe for concurrent use with one another, not beside
// a training forward, a Backward, a Load or a weight update. An inference
// forward, or any other run of the layers' eval mode, between Forward(x, true)
// and Backward changes nothing Backward reads.
type Graph struct {
	Nodes []*Node
	// Output is the index of the node whose output is the graph output.
	// Defaults to the last node.
	Output int
	// OutShapes records each node's output shape from the last inference
	// Forward to finish, valid until the next one and not to be modified.
	// Only bench/ still reads it; pricing reads Costs. It goes, with Coster,
	// once bench/ reads Costs too.
	OutShapes [][]int

	// The tape: the input and every node's output of the training forward
	// Backward has yet to take, nil once it has.
	x    *tensor.Tensor
	outs []*tensor.Tensor

	mu   sync.Mutex                 // guards OutShapes
	free tensor.FreeList[PlanCache] // the executors no inference forward is running on
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	g := &Graph{Output: -1}
	g.free.Alloc = func() *PlanCache { return NewPlanCache(g, nil) }
	return g
}

// Add appends a layer fed by the given node indices (GraphInput for the
// external input) and returns the new node's index.
func (g *Graph) Add(l Layer, inputs ...int) int {
	if len(inputs) == 0 {
		// Default: chain from the previous node, or the graph input.
		if len(g.Nodes) == 0 {
			inputs = []int{GraphInput}
		} else {
			inputs = []int{len(g.Nodes) - 1}
		}
	}
	for _, in := range inputs {
		if in != GraphInput && (in < 0 || in >= len(g.Nodes)) {
			panic(fmt.Sprintf("nn: graph input index %d out of range", in))
		}
	}
	g.Nodes = append(g.Nodes, &Node{Layer: l, Inputs: inputs})
	return len(g.Nodes) - 1
}

func (g *Graph) output() int {
	if g.Output >= 0 {
		return g.Output
	}
	return len(g.Nodes) - 1
}

// Forward runs the whole graph on x and returns the output node's tensor.
// In training it walks the layers, every node's own Layer.Forward on the
// whole batch, and keeps x and the node outputs as the tape for Backward.
func (g *Graph) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(g.Nodes) == 0 {
		panic("nn: forward on empty graph")
	}
	if !train {
		return g.infer(x, nil)
	}
	outs := make([]*tensor.Tensor, len(g.Nodes))
	ins := make([]*tensor.Tensor, 0, 2)
	for i, n := range g.Nodes {
		outs[i] = n.Layer.Forward(n.inputs(ins[:0], x, outs), true)
	}
	g.x, g.outs = x, outs
	return outs[g.output()]
}

// ForwardSamples is Forward(x, false) writing sample i's output into outs[i]
// (SampleOuts): once the executor and outs fit, it allocates nothing.
func (g *Graph) ForwardSamples(outs []*tensor.Tensor, x *tensor.Tensor) { g.infer(x, outs) }

// infer runs an inference forward of x on an executor off the free list: into
// outs, or with none into a fresh batch tensor, which it returns.
func (g *Graph) infer(x *tensor.Tensor, outs []*tensor.Tensor) (out *tensor.Tensor) {
	c := g.free.Get()
	p := c.For(x.Shape())
	if outs == nil {
		out = p.Run(x, nil)
	} else {
		p.batch(x.Dim(0))
		p.run(SampleOuts(c.outs, outs, x.Dim(0), p.Slot(p.output).Dims), x, nil)
	}
	g.mu.Lock()
	g.OutShapes = p.shapes
	g.mu.Unlock()
	g.free.Put(c)
	return out
}

// inputs appends to ins node n's inputs in a walk of x whose node outputs are
// outs.
func (n *Node) inputs(ins []*tensor.Tensor, x *tensor.Tensor, outs []*tensor.Tensor) []*tensor.Tensor {
	for _, j := range n.Inputs {
		if j == GraphInput {
			ins = append(ins, x)
		} else {
			ins = append(ins, outs[j])
		}
	}
	return ins
}

// Backward propagates dout (gradient w.r.t. the graph output) through every
// node in reverse order, accumulating parameter gradients, and returns the
// gradient with respect to the graph input. It takes back the tape of the
// last Forward(x, true), handing each node its inputs from there, and drops
// it: each Backward needs a training forward of its own.
func (g *Graph) Backward(dout *tensor.Tensor) *tensor.Tensor {
	x, outs := g.x, g.outs
	if outs == nil {
		panic("nn: Graph.Backward needs a preceding Forward(x, true): there was none, or a Backward has taken its tape already")
	}
	g.x, g.outs = nil, nil
	grads := make([]*tensor.Tensor, len(g.Nodes))
	grads[g.output()] = dout
	var dinput *tensor.Tensor
	ins := make([]*tensor.Tensor, 0, 2)
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		outs[i] = nil // its consumers are taken back: no node reads it again
		if grads[i] == nil {
			continue // node does not feed the output
		}
		dins := g.Nodes[i].Layer.Backward(g.Nodes[i].inputs(ins[:0], x, outs), grads[i])
		if len(dins) != len(g.Nodes[i].Inputs) {
			panic(fmt.Sprintf("nn: layer %s returned %d input grads for %d inputs",
				g.Nodes[i].Layer.Name(), len(dins), len(g.Nodes[i].Inputs)))
		}
		for k, j := range g.Nodes[i].Inputs {
			if j == GraphInput {
				if dinput == nil {
					dinput = dins[k]
				} else {
					dinput.AddInPlace(dins[k])
				}
			} else if grads[j] == nil {
				grads[j] = dins[k]
			} else {
				grads[j].AddInPlace(dins[k])
			}
		}
	}
	return dinput
}

// Params returns all learnable parameters of the graph.
func (g *Graph) Params() []*Param {
	var ps []*Param
	for _, n := range g.Nodes {
		ps = append(ps, n.Layer.Params()...)
	}
	return ps
}

// NumParams returns the total number of learnable scalar parameters.
func (g *Graph) NumParams() int64 {
	var n int64
	for _, p := range g.Params() {
		n += int64(p.W.Len())
	}
	return n
}

// ParamBytes returns the float32 model size in bytes.
func (g *Graph) ParamBytes() int64 { return g.NumParams() * 4 }
