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

// MaxPoolInto is maxPoolInto, for the row sweeps.
var MaxPoolInto = maxPoolInto

// Arena returns the arena inference forwards have left on g and how many
// lanes they have run on.
func Arena(g *Graph) (arena []float32, lanes int) { return g.arena, len(g.lanes) }
