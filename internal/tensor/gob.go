package tensor

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// gobTensor is the wire form of a Tensor; Tensor keeps its shape
// unexported so it encodes through this mirror struct.
type gobTensor struct {
	Shape []int
	Data  []float32
}

// GobEncode implements gob.GobEncoder.
func (t *Tensor) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(gobTensor{Shape: t.shape, Data: t.Data})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. Like New it takes only a non-empty
// shape of positive dimensions, and the shape must count exactly the data.
func (t *Tensor) GobDecode(b []byte) error {
	var gt gobTensor
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&gt); err != nil {
		return err
	}
	n := 1
	for _, d := range gt.Shape {
		if d <= 0 || n > len(gt.Data)/d { // checked before multiplying: no overflow
			n = -1
			break
		}
		n *= d
	}
	if len(gt.Shape) == 0 || n != len(gt.Data) {
		return fmt.Errorf("tensor: shape %v does not describe %d elements of data", gt.Shape, len(gt.Data))
	}
	t.shape = gt.Shape
	t.Data = gt.Data
	return nil
}
