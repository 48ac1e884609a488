package nn

import (
	"encoding/gob"
	"fmt"
	"io"

	"skynet/internal/tensor"
)

// Stateful is implemented by layers that carry non-learnable state that
// must survive serialization (e.g. BatchNorm running statistics).
type Stateful interface {
	StateTensors() []*tensor.Tensor
}

// StateTensors returns BatchNorm's running mean and variance.
func (b *BatchNorm) StateTensors() []*tensor.Tensor {
	return []*tensor.Tensor{b.RunMean, b.RunVar}
}

// snapshot is the on-disk form of a graph's weights: a state-dict in node
// order. The architecture itself is rebuilt from code by the deterministic
// builder that created the graph, so only tensors are stored.
type snapshot struct {
	Format  int
	Tensors []*tensor.Tensor
}

const snapshotFormat = 1

func (g *Graph) stateTensors() []*tensor.Tensor {
	var ts []*tensor.Tensor
	for _, n := range g.Nodes {
		for _, p := range n.Layer.Params() {
			ts = append(ts, p.W)
		}
		if s, ok := n.Layer.(Stateful); ok {
			ts = append(ts, s.StateTensors()...)
		}
	}
	return ts
}

// Save writes the graph's parameters and stateful buffers to w in gob
// format. Load restores them into a graph with the identical architecture.
func (g *Graph) Save(w io.Writer) error {
	snap := snapshot{Format: snapshotFormat, Tensors: g.stateTensors()}
	return gob.NewEncoder(w).Encode(snap)
}

// Load restores parameters previously written by Save into g. The graph
// must have been built with the same architecture (same layer sequence and
// shapes); mismatches are reported as errors, and leave g as it was.
func (g *Graph) Load(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("nn: decoding snapshot: %w", err)
	}
	if snap.Format != snapshotFormat {
		return fmt.Errorf("nn: unsupported snapshot format %d", snap.Format)
	}
	dst := g.stateTensors()
	if len(dst) != len(snap.Tensors) {
		return fmt.Errorf("nn: snapshot has %d tensors, graph expects %d", len(snap.Tensors), len(dst))
	}
	for i, t := range snap.Tensors {
		if !dst[i].SameShape(t) || len(t.Data) != len(dst[i].Data) {
			return fmt.Errorf("nn: snapshot tensor %d has shape %v and %d elements, graph expects %v", i, t.Shape(), len(t.Data), dst[i].Shape())
		}
	}
	for i, t := range snap.Tensors {
		copy(dst[i].Data, t.Data)
	}
	return nil
}
