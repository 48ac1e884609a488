package nn

import "testing"

// PoisonReleased makes the inference executor fill every arena slot with
// NaN the moment its plan releases it, until the test ends.
func PoisonReleased(t *testing.T) {
	poisonReleased = true
	t.Cleanup(func() { poisonReleased = false })
}
