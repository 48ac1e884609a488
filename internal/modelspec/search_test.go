package modelspec

import (
	"encoding/json"
	"math/rand"
	"testing"

	"skynet/internal/tensor"
)

func TestSearchSpecBuilds(t *testing.T) {
	s := SearchSpec(6, []int{8, 16, 24}, []int{0, 1}, 3)
	g, head, err := s.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if head == nil {
		t.Fatal("search spec with a head channel count must build a head")
	}
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(1, 3, 16, 16)
	x.RandUniform(rng, 0, 1)
	out := g.Forward(x, false)
	if out.Dim(1) != 10 || out.Dim(2) != 4 {
		t.Fatalf("search chain output %v", out.Shape())
	}
}

func TestSearchSpecBypass(t *testing.T) {
	s := SearchSpec(6, []int{8, 16, 24, 32}, []int{0, 1}, 3)
	s.Bypass = true
	g, _, err := s.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	reorgs := 0
	for _, n := range g.Nodes {
		if n.Layer.Name() == "reorg" {
			reorgs++
		}
	}
	if reorgs != 1 {
		t.Fatalf("bypass spec built %d reorg layers, want 1", reorgs)
	}
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(1, 3, 16, 16)
	x.RandUniform(rng, 0, 1)
	if out := g.Forward(x, false); out.Dim(1) != 10 {
		t.Fatalf("bypass output %v", out.Shape())
	}
}

func TestSearchSpecRejectsBadGenomes(t *testing.T) {
	cases := []Spec{
		SearchSpec(9999, []int{8}, nil, 1),           // unknown bundle
		SearchSpec(0, nil, nil, 1),                   // no slots
		SearchSpec(0, []int{8, 16}, []int{3}, 1),     // pool out of range
		SearchSpec(0, []int{8, 16}, []int{1, 1}, 1),  // not strictly increasing
		SearchSpec(0, []int{8, 16}, []int{1, 0}, 1),  // descending
		SearchSpec(0, []int{8, 16}, []int{-1, 1}, 1), // negative slot
	}
	for i, s := range cases {
		if _, _, err := s.Build(); err == nil {
			t.Fatalf("case %d: bad genome %+v built without error", i, s)
		}
	}
}

// TestSearchSpecRoundTripsIdentically pins the self-description contract:
// a spec marshalled to JSON and reloaded builds a graph with bitwise
// identical initial weights (same seed, same builder path).
func TestSearchSpecRoundTripsIdentically(t *testing.T) {
	s := SearchSpec(4, []int{8, 12, 16}, []int{0, 2}, 7)
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var s2 Spec
	if err := json.Unmarshal(raw, &s2); err != nil {
		t.Fatal(err)
	}
	g1, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := s2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(g1.Nodes) != len(g2.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(g1.Nodes), len(g2.Nodes))
	}
	for i := range g1.Nodes {
		p1, p2 := g1.Nodes[i].Layer.Params(), g2.Nodes[i].Layer.Params()
		for j := range p1 {
			a, b := p1[j].W.Data, p2[j].W.Data
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("node %d param %d differs at %d", i, j, k)
				}
			}
		}
	}
}

// TestArchHashCanonical is the cache-keying contract: JSON key order (and
// any other representational difference) must not change the hash, while
// any genome change — including permuting the channel profile, which is a
// different network — must.
func TestArchHashCanonical(t *testing.T) {
	a := `{"family":"search","bundle":4,"channels":[8,16,24],"pool_pos":[0,1],"in_channels":3,"head_channels":10,"seed":7}`
	b := `{"seed":7,"head_channels":10,"pool_pos":[0,1],"in_channels":3,"channels":[8,16,24],"bundle":4,"family":"search","relu6":false,"width":0}`
	var sa, sb Spec
	if err := json.Unmarshal([]byte(a), &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &sb); err != nil {
		t.Fatal(err)
	}
	if ArchHash(sa) != ArchHash(sb) {
		t.Fatalf("permuted JSON keys changed the hash: %s vs %s", ArchHash(sa), ArchHash(sb))
	}

	base := SearchSpec(4, []int{8, 16, 24}, []int{0, 1}, 7)
	seen := map[string]string{ArchHash(base): "base"}
	mutants := map[string]Spec{
		"bundle":             SearchSpec(5, []int{8, 16, 24}, []int{0, 1}, 7),
		"channel value":      SearchSpec(4, []int{8, 16, 32}, []int{0, 1}, 7),
		"channel order":      SearchSpec(4, []int{16, 8, 24}, []int{0, 1}, 7),
		"pool position":      SearchSpec(4, []int{8, 16, 24}, []int{0, 2}, 7),
		"dropped pool":       SearchSpec(4, []int{8, 16, 24}, []int{0}, 7),
		"seed":               SearchSpec(4, []int{8, 16, 24}, []int{0, 1}, 8),
		"extra slot":         SearchSpec(4, []int{8, 16, 24, 24}, []int{0, 1}, 7),
		"slot/pool aliasing": func() Spec { s := SearchSpec(4, []int{8, 16}, nil, 7); s.PoolPos = []int{24}; return s }(),
	}
	bypass := base
	bypass.Bypass = true
	mutants["bypass"] = bypass
	relu6 := base
	relu6.ReLU6 = true
	mutants["relu6"] = relu6
	for name, m := range mutants {
		h := ArchHash(m)
		if prev, dup := seen[h]; dup {
			t.Fatalf("mutant %q collides with %q (hash %s)", name, prev, h)
		}
		seen[h] = name
	}
}

// TestArchHashLengthFraming: moving a value across the Channels/PoolPos
// boundary keeps total element count but must still change the hash.
func TestArchHashLengthFraming(t *testing.T) {
	a := SearchSpec(0, []int{1, 2}, nil, 0)
	b := SearchSpec(0, []int{1}, []int{2}, 0)
	if ArchHash(a) == ArchHash(b) {
		t.Fatal("field framing failed: [1,2]|[] and [1]|[2] hash equal")
	}
}
