package modelspec

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/bundle"
	"skynet/internal/nn"
)

// graphDigest hashes what a builder decides: every node's layer kind, name
// and input indices, its price-table row at input shape in (the shapes, MACs
// and parameter count, so kernel, stride and width changes show), the output
// index, and the bits of every parameter and state tensor (the Save stream).
func graphDigest(t *testing.T, g *nn.Graph, in []int) string {
	t.Helper()
	h := fnv.New64a()
	for i, c := range nn.Costs(g, in) {
		_, _ = fmt.Fprintf(h, "%d %T %s %v %v %v %d %d %d\n", i, c.Layer, c.Layer.Name(), g.Nodes[i].Inputs, c.In, c.Out, c.MACs, c.Bytes, c.Params)
	}
	_, _ = fmt.Fprintf(h, "out %d\n", g.Output) // hash writes never fail
	var w bytes.Buffer
	if err := g.Save(&w); err != nil {
		t.Fatal(err)
	}
	_, _ = h.Write(w.Bytes())
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestBuildersGolden pins every Bundle-chain builder bit for bit: SkyNet A/B/C
// at two widths with either activation, the Stage 1 sketch of every
// enumerated Bundle, and one searched candidate with the Stage 3 features.
// The digests were recorded when SkyNet, the sketch and the search
// candidates still had a builder each; they are one bundle.Chain now.
func TestBuildersGolden(t *testing.T) {
	got := map[string]string{}
	for _, v := range []backbone.SkyNetVariant{backbone.VariantA, backbone.VariantB, backbone.VariantC} {
		for _, w := range []float64{1, 0.25} {
			for _, relu6 := range []bool{false, true} {
				cfg := backbone.Config{Width: w, HeadChannels: 10, ReLU6: relu6}
				g := backbone.SkyNet(rand.New(rand.NewSource(3)), cfg, v)
				got[fmt.Sprintf("skynet %s w%g relu6=%t", v, w, relu6)] = graphDigest(t, g, []int{1, 3, 32, 64})
			}
		}
	}
	for _, b := range bundle.Enumerate() {
		g := b.Sketch(rand.New(rand.NewSource(1)))
		got[fmt.Sprintf("sketch %d %s", b.ID, b.Name())] = graphDigest(t, g, []int{1, 3, 24, 48})
	}
	s := SearchSpec(6, []int{8, 16, 24, 32}, []int{0, 1}, 7)
	s.ReLU6, s.Bypass = true, true
	g, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	got["search bundle 6 relu6 bypass"] = graphDigest(t, g, []int{1, 3, 24, 48})

	want := map[string]string{
		"skynet A w1 relu6=false":        "980a3618f8947c10",
		"skynet A w1 relu6=true":         "3d31ecd9aff1b226",
		"skynet A w0.25 relu6=false":     "776d03f2d20c5f14",
		"skynet A w0.25 relu6=true":      "019656121d286f1e",
		"skynet B w1 relu6=false":        "d8e487f7561d794c",
		"skynet B w1 relu6=true":         "0ce8fd9a218fdc2e",
		"skynet B w0.25 relu6=false":     "e88c12d11a9a07b4",
		"skynet B w0.25 relu6=true":      "3c8cbbfeae6685aa",
		"skynet C w1 relu6=false":        "bd5db45b26e2f63c",
		"skynet C w1 relu6=true":         "80fe220f503d4eaa",
		"skynet C w0.25 relu6=false":     "568febd0c6580fad",
		"skynet C w0.25 relu6=true":      "3d84d50b0e788037",
		"sketch 0 Conv3+BN+ReLU":         "abb6f8dfe082003b",
		"sketch 1 Conv3+BN+ReLU6":        "d8e9dfb85f8d96a9",
		"sketch 2 Conv5+BN+ReLU":         "27baff0ae23565fb",
		"sketch 3 Conv5+BN+ReLU6":        "2c1a1a211e571543",
		"sketch 4 Conv1+BN+ReLU":         "4aca87574beb67cc",
		"sketch 5 Conv1+BN+ReLU6":        "7368e9f05a982594",
		"sketch 6 DW3+PW+BN+ReLU":        "9d0d8cd416388505",
		"sketch 7 DW3+PW+BN+ReLU6":       "74852ee7e9cc9bc1",
		"sketch 8 DW5+PW+BN+ReLU":        "fe8cf46f8bd8dd32",
		"sketch 9 DW5+PW+BN+ReLU6":       "4baf4a0cfd3ba9ec",
		"sketch 10 Conv3+Conv1+BN+ReLU":  "88995792fb4425cb",
		"sketch 11 Conv3+Conv1+BN+ReLU6": "954689f15b739c61",
		"search bundle 6 relu6 bypass":   "3ef7cd559a110115",
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
