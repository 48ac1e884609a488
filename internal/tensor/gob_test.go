package tensor

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// TestGobDecodeChecksShape: a decoded tensor's shape must be one New takes
// and count exactly its data, without overflowing on the way.
func TestGobDecodeChecksShape(t *testing.T) {
	for _, c := range []struct {
		shape []int
		n     int
		ok    bool
	}{
		{[]int{2, 3}, 6, true},
		{[]int{5}, 5, true},
		{nil, 0, false},
		{nil, 1, false},
		{[]int{2, 0, 3}, 0, false},
		{[]int{2, 3}, 5, false},
		{[]int{2, 3}, 7, false},
		{[]int{-2, -3}, 6, false},
		{[]int{-1}, 0, false},
		{[]int{1 << 40, 1 << 40, 0}, 0, false},
		{[]int{1 << 62, 4}, 0, false},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(gobTensor{Shape: c.shape, Data: make([]float32, c.n)}); err != nil {
			t.Fatal(err)
		}
		var got Tensor
		if err := got.GobDecode(buf.Bytes()); (err == nil) != c.ok {
			t.Errorf("shape %v with %d elements: error %v, want ok %v", c.shape, c.n, err, c.ok)
		}
	}
}
