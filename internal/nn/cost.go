package nn

import (
	"fmt"
	"slices"
	"strings"
)

// NodeCost is one node's row of a graph's price table, at one sample: its
// layer, the shapes of its first input and of its output, the MACs and bytes
// of a Conv2D, DWConv3 or Linear (zero for every other kind), and its
// parameter count.
type NodeCost struct {
	Layer               Layer
	In, Out             []int
	MACs, Bytes, Params int64
}

// Costs returns g's price table at input shape in (in[0] is ignored, as in
// Compile): one row per node, from Compile's shape inference. It depends on
// the architecture and the input shape alone, so pricing needs no forward,
// and no forward changes a price.
func Costs(g *Graph, in []int) []NodeCost {
	p := Compile(g, in, nil)
	rows := make([]NodeCost, len(g.Nodes))
	for i, n := range g.Nodes {
		r := &rows[i]
		r.Layer, r.In, r.Out = n.Layer, slices.Clone(p.Slot(n.Inputs[0]).Dims), p.shapes[i]
		for _, q := range n.Layer.Params() {
			r.Params += int64(q.W.Len())
		}
		switch l := n.Layer.(type) {
		case *Conv2D:
			r.MACs, r.Bytes = l.cost(1, r.In[2], r.In[3])
		case *DWConv3:
			r.MACs, r.Bytes = l.cost(1, r.In[2], r.In[3])
		case *Linear:
			r.MACs, r.Bytes = l.cost(1)
		}
	}
	return rows
}

// CostsOf is Costs for an input shape from outside the program, a flag or a
// file: a shape g cannot take is an error naming it, not Compile's panic.
func CostsOf(g *Graph, in []int) (rows []NodeCost, err error) {
	defer func() {
		if r := recover(); r != nil {
			rows, err = nil, fmt.Errorf("input %v: %v", in[1:], r)
		}
	}()
	return Costs(g, in), nil
}

// Summary renders a price table in the style of torchsummary: per node its
// layer name, output shape, parameter count and MACs, then the totals.
func Summary(rows []NodeCost) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %-12s %-18s %12s %14s\n", "#", "layer", "output", "params", "MACs")
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 64))
	var totalParams, totalMACs int64
	for i, r := range rows {
		fmt.Fprintf(&sb, "%-4d %-12s %-18s %12d %14d\n", i, r.Layer.Name(), fmt.Sprint(r.Out), r.Params, r.MACs)
		totalParams += r.Params
		totalMACs += r.MACs
	}
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 64))
	fmt.Fprintf(&sb, "total: %d parameters (%.2f MB fp32), %d MACs/forward\n",
		totalParams, float64(totalParams)*4/1e6, totalMACs)
	return sb.String()
}
