package nn_test

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"slices"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// wireSnapshot mirrors the form Graph.Save writes; gob matches it by field.
type wireSnapshot struct {
	Format  int
	Tensors []*tensor.Tensor
}

// stateTensors lists what Graph.Save writes of g, in its order.
func stateTensors(g *nn.Graph) []*tensor.Tensor {
	var ts []*tensor.Tensor
	for _, n := range g.Nodes {
		for _, p := range n.Layer.Params() {
			ts = append(ts, p.W)
		}
		if s, ok := n.Layer.(nn.Stateful); ok {
			ts = append(ts, s.StateTensors()...)
		}
	}
	return ts
}

// FuzzGraphLoad: whatever the bytes, Load of a fixed small SkyNet returns an
// error or loads exactly what they encode — every tensor whole — and never
// panics. The seeds are a valid Save, truncations of it, and snapshots whose
// tensors keep their shapes but lost a datum: every tensor, or only the last.
func FuzzGraphLoad(f *testing.F) {
	g := backbone.SkyNet(rand.New(rand.NewSource(90)), backbone.Config{Width: 0.125, InC: 3, HeadChannels: 10, ReLU6: true}, backbone.VariantA)
	var saved bytes.Buffer
	if err := g.Save(&saved); err != nil {
		f.Fatal(err)
	}
	valid := saved.Bytes()
	for _, n := range []int{len(valid), 0, 1, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	for _, all := range []bool{true, false} {
		var snap wireSnapshot
		if err := gob.NewDecoder(bytes.NewReader(valid)).Decode(&snap); err != nil {
			f.Fatal(err)
		}
		for i, t := range snap.Tensors {
			if all || i == len(snap.Tensors)-1 {
				t.Data = t.Data[:len(t.Data)-1]
			}
		}
		var short bytes.Buffer
		if err := gob.NewEncoder(&short).Encode(snap); err != nil {
			f.Fatal(err)
		}
		f.Add(short.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if g.Load(bytes.NewReader(data)) != nil {
			return
		}
		var snap wireSnapshot
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
			t.Fatalf("Load accepted bytes that do not decode: %v", err)
		}
		ts := stateTensors(g)
		if len(snap.Tensors) != len(ts) {
			t.Fatalf("Load accepted %d tensors for a graph of %d", len(snap.Tensors), len(ts))
		}
		for i, want := range snap.Tensors {
			if !slices.EqualFunc(ts[i].Data, want.Data, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
				t.Fatalf("tensor %d: Load returned nil, but the graph holds %d elements that are not the snapshot's %d", i, len(ts[i].Data), len(want.Data))
			}
		}
	})
}
