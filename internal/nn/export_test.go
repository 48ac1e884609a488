package nn

import "testing"

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
func BandBuffers(g *Graph) [][]float32 { return g.bands }

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
	for _, pn := range p.nodes {
		if b := pn.band; b != nil {
			d, w := b.carve(buf, b.rows*pn.dims[3])
			dw, pw = append(dw, span(d)), append(pw, span(w))
		}
	}
	return dw, pw
}

// MaxPoolInto is maxPoolInto, for the row sweeps.
var MaxPoolInto = maxPoolInto

// Arena returns the arena inference forwards have left on g and how many
// lanes they have run on.
func Arena(g *Graph) (arena []float32, lanes int) { return g.arena, len(g.lanes) }
