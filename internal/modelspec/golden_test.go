package modelspec

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/bundle"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// graphDigest hashes what a builder decides: every node's layer kind, name
// and input indices, its price-table row at input shape in (the shapes, MACs
// and parameter count, so kernel, stride and width changes show), the output
// index, and the shape and bits of every parameter and state tensor, in the
// order Save writes them. The tensors are hashed directly, not as Save's gob
// stream: gob numbers its types once per process, so the stream's bytes
// depend on what the process has encoded or decoded before.
func graphDigest(g *nn.Graph, in []int) string {
	h := fnv.New64a()
	for i, c := range nn.Costs(g, in) {
		_, _ = fmt.Fprintf(h, "%d %T %s %v %v %v %d %d %d\n", i, c.Layer, c.Layer.Name(), g.Nodes[i].Inputs, c.In, c.Out, c.MACs, c.Bytes, c.Params)
	}
	_, _ = fmt.Fprintf(h, "out %d\n", g.Output) // hash writes never fail
	var word [4]byte
	for _, n := range g.Nodes {
		var ts []*tensor.Tensor
		for _, p := range n.Layer.Params() {
			ts = append(ts, p.W)
		}
		if s, ok := n.Layer.(nn.Stateful); ok {
			ts = append(ts, s.StateTensors()...)
		}
		for _, x := range ts {
			_, _ = fmt.Fprintf(h, "%v\n", x.Shape())
			for _, v := range x.Data {
				binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
				_, _ = h.Write(word[:])
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestBuildersGolden pins every Bundle-chain builder bit for bit: SkyNet A/B/C
// at two widths with either activation, the Stage 1 sketch of every
// enumerated Bundle, and one searched candidate with the Stage 3 features.
// The digests were recorded when SkyNet, the sketch and the search
// candidates still had a builder each, and recorded again, from the same
// builders, when the tensors stopped being hashed as Save's gob stream.
func TestBuildersGolden(t *testing.T) {
	// A checkpoint decoded first: the digests must not depend on what the
	// process has run before (gob's type numbering once made them).
	path := filepath.Join(t.TempDir(), "hostile.ckpt")
	if err := os.WriteFile(path, encodeCheckpoint(t, []byte(`{"family":"skynet","variant":"C","width":-1,"in_channels":3,"head_channels":10}`)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("a checkpoint of width -1 loaded")
	}
	got := map[string]string{}
	for _, v := range []backbone.SkyNetVariant{backbone.VariantA, backbone.VariantB, backbone.VariantC} {
		for _, w := range []float64{1, 0.25} {
			for _, relu6 := range []bool{false, true} {
				cfg := backbone.Config{Width: w, HeadChannels: 10, ReLU6: relu6}
				g := backbone.SkyNet(rand.New(rand.NewSource(3)), cfg, v)
				got[fmt.Sprintf("skynet %s w%g relu6=%t", v, w, relu6)] = graphDigest(g, []int{1, 3, 32, 64})
			}
		}
	}
	for _, b := range bundle.Enumerate() {
		g := b.Sketch(rand.New(rand.NewSource(1)))
		got[fmt.Sprintf("sketch %d %s", b.ID, b.Name())] = graphDigest(g, []int{1, 3, 24, 48})
	}
	s := SearchSpec(6, []int{8, 16, 24, 32}, []int{0, 1}, 7)
	s.ReLU6, s.Bypass = true, true
	g, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	got["search bundle 6 relu6 bypass"] = graphDigest(g, []int{1, 3, 24, 48})

	want := map[string]string{
		"skynet A w1 relu6=false":        "681385a48220688a",
		"skynet A w1 relu6=true":         "4c58ecab9629b788",
		"skynet A w0.25 relu6=false":     "9418951e701f1adb",
		"skynet A w0.25 relu6=true":      "84844e874864b915",
		"skynet B w1 relu6=false":        "8da5de3d12fba887",
		"skynet B w1 relu6=true":         "f4d31eb8d849e1a1",
		"skynet B w0.25 relu6=false":     "3c1e2aa9c335eccc",
		"skynet B w0.25 relu6=true":      "fee24616d2043802",
		"skynet C w1 relu6=false":        "bca152f79d7bde09",
		"skynet C w1 relu6=true":         "35534c3311af7b2f",
		"skynet C w0.25 relu6=false":     "0ce104d432d9d2c1",
		"skynet C w0.25 relu6=true":      "2bc323ea5827364f",
		"sketch 0 Conv3+BN+ReLU":         "a75fc3a4a0841341",
		"sketch 1 Conv3+BN+ReLU6":        "cd5f434fb2ea6ef3",
		"sketch 2 Conv5+BN+ReLU":         "dcaf49f9fc03a86a",
		"sketch 3 Conv5+BN+ReLU6":        "fd29db7b52261c82",
		"sketch 4 Conv1+BN+ReLU":         "1e0578a57037307e",
		"sketch 5 Conv1+BN+ReLU6":        "9e08eb7eaebbfc96",
		"sketch 6 DW3+PW+BN+ReLU":        "97e4a8ecbb46d96e",
		"sketch 7 DW3+PW+BN+ReLU6":       "310934760bcf208a",
		"sketch 8 DW5+PW+BN+ReLU":        "78a8550a52af6123",
		"sketch 9 DW5+PW+BN+ReLU6":       "52f7ef6fa1333805",
		"sketch 10 Conv3+Conv1+BN+ReLU":  "3a532aecb0e04291",
		"sketch 11 Conv3+Conv1+BN+ReLU6": "23ccb66822077c6f",
		"search bundle 6 relu6 bypass":   "6e1168d90e768ed7",
	}
	if len(got) != len(want) {
		t.Fatalf("built %d graphs, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: digest %s, want %s", k, got[k], w)
		}
	}
}
