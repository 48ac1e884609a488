package nn

import (
	"testing"

	"skynet/internal/tensor"
)

// PoisonReleased makes the inference executor fill every arena slot with
// NaN the moment its plan releases it, until the test ends.
func PoisonReleased(t *testing.T) {
	poisonReleased = true
	t.Cleanup(func() { poisonReleased = false })
}

// SetBandBudget makes Bundle steps compiled until the test ends size their
// bands for the given number of bytes.
func SetBandBudget(t *testing.T, bytes int) {
	old := bandBudget
	bandBudget = bytes
	t.Cleanup(func() { bandBudget = old })
}

// BandBudget is what one band of a Bundle step may occupy, in bytes.
func BandBudget() int { return bandBudget }

// BandBuffers returns the band buffers inference forwards have left on g, one
// per worker.
func BandBuffers(g *Graph) (bufs [][]float32) {
	for _, l := range g.lanes {
		if l.band != nil {
			bufs = append(bufs, l.band)
		}
	}
	return bufs
}

// BandSpans returns, for each Bundle step of p, where its largest band's
// depth-wise rows and product lie in a worker's buffer as the step cuts it,
// as [lo, hi) offsets; without a pool the product's span is empty.
func BandSpans(p *Plan) (dw, pw [][2]int) {
	buf := make([]float32, p.bandLen)
	span := func(s []float32) [2]int {
		lo := cap(buf) - cap(s)
		if s == nil {
			lo = 0
		}
		return [2]int{lo, lo + len(s)}
	}
	for _, s := range p.steps {
		if b := s.Band; b != nil {
			d, w := b.carve(buf, b.Rows*p.nodes[s.Node].Dims[3])
			dw, pw = append(dw, span(d)), append(pw, span(w))
		}
	}
	return dw, pw
}

// MaxPoolInto is maxPoolInto, for the row sweeps.
var MaxPoolInto = maxPoolInto

// Arena returns the arena inference forwards have left on g and how many
// lanes they have run on: those with a region of it (the others only lend a
// lone lane's split their band buffers).
func Arena(g *Graph) (arena []float32, lanes int) {
	for _, l := range g.lanes {
		if l.arena != nil {
			lanes++
		}
	}
	return g.arena, lanes
}

// DWRows is DWConv3.rows on one plane [h,w]: output rows oy, oy+1, … of
// channel ch, as many as dst holds.
func DWRows(d *DWConv3, dst, in []float32, h, w, ch, oy int) {
	d.record(1, h, w)
	d.rows(dst, in, ch, oy)
}

// Walk runs every node's own Layer.Forward in eval mode on the whole batch,
// each output a fresh tensor, and returns the output node's: the layer walk
// inference forwards are held to, bit for bit. visit, when non-nil, is shown
// each node's output before that node's consumers run, and may rewrite it.
func (g *Graph) Walk(x *tensor.Tensor, visit func(i int, out *tensor.Tensor)) *tensor.Tensor {
	g.trained = false
	g.OutShapes = make([][]int, len(g.Nodes))
	outs := make([]*tensor.Tensor, len(g.Nodes))
	for i, n := range g.Nodes {
		ins := make([]*tensor.Tensor, len(n.Inputs))
		for k, j := range n.Inputs {
			ins[k] = x
			if j != GraphInput {
				ins[k] = outs[j]
			}
		}
		outs[i] = n.Layer.Forward(ins, false)
		g.OutShapes[i] = outs[i].Shape()
		if visit != nil {
			visit(i, outs[i])
		}
	}
	return outs[g.output()]
}
