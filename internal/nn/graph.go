package nn

import (
	"fmt"

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
// Forward(x, true) walks the layers, which cache what Backward needs.
// Forward(x, false) runs the plan for x's sample shape from the graph's
// PlanCache (plan.go), compiled once, whatever the graph: it touches no layer
// cache, walks the plan's one step list as lanes — each worker its own
// samples, on its own one-sample region of an arena the graph owns — and
// keeps every feature map there but for the maps inside a Bundle (DW → PW →
// BN → act → pool), one step holding them a band of rows at a time
// (band.go); it returns bitwise what walking the layers in eval mode would.
// No inference path walks the layers: the tests keep that walk as the plan's
// oracle, and a caller that must see or rewrite every map runs a plan
// compiled under a mask marking every node with an observer (Plan.RunInto).
// The returned tensor is always a fresh one that belongs to the caller. A
// Graph is not safe for concurrent use.
type Graph struct {
	Nodes []*Node
	// Output is the index of the node whose output is the graph output.
	// Defaults to the last node.
	Output int
	// OutShapes records each node's output shape from the last Forward,
	// valid until the next one and not to be modified. Only the benchmark
	// module (bench/) still reads it; pricing reads Costs. It goes, with
	// Coster, once bench/ reads Costs too.
	OutShapes [][]int

	trained bool      // the last Forward was a training one: the layers hold its caches
	plans   PlanCache // inference plans, one per input sample shape, under no mask
	arena   []float32 // feature maps of the inference forward in flight: one sample's per lane
	lanes   []*lane   // the walks of the forward in flight, and the workers' band buffers; lanes[i] owns region i of arena
	run     planRun   // the inference forward in flight
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{Output: -1} }

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
// whole batch, each caching what Backward needs.
func (g *Graph) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(g.Nodes) == 0 {
		panic("nn: forward on empty graph")
	}
	g.trained = train
	if !train {
		g.plans.g = g
		p := g.plans.For(x.Shape())
		g.OutShapes = p.shapes
		return p.Run(x, nil)
	}
	g.OutShapes = make([][]int, len(g.Nodes))
	outs := make([]*tensor.Tensor, len(g.Nodes))
	ins := make([]*tensor.Tensor, 0, 2)
	for i, n := range g.Nodes {
		ins = ins[:0]
		for _, j := range n.Inputs {
			if j == GraphInput {
				ins = append(ins, x)
			} else {
				ins = append(ins, outs[j])
			}
		}
		outs[i] = n.Layer.Forward(ins, true)
		g.OutShapes[i] = outs[i].Shape()
	}
	return outs[g.output()]
}

// Backward propagates dout (gradient w.r.t. the graph output) through every
// node in reverse order, accumulating parameter gradients, and returns the
// gradient with respect to the graph input. The layers' caches must be
// those of this graph's last forward, so that forward has to be a
// Forward(x, true): an inference forward runs the plan and leaves none.
func (g *Graph) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if !g.trained {
		panic("nn: Graph.Backward needs a preceding Forward(x, true): the last forward was an inference pass (or there was none), which leaves no layer caches to differentiate")
	}
	grads := make([]*tensor.Tensor, len(g.Nodes))
	grads[g.output()] = dout
	var dinput *tensor.Tensor
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		if grads[i] == nil {
			continue // node does not feed the output
		}
		dins := g.Nodes[i].Layer.Backward(grads[i])
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
