package nn_test

import (
	"math/rand"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/nn"
)

// replayLayout walks a plan's steps as the executor does — a step's outputs
// are alive from that step, the slots it frees until it — and fails if two
// slots alive at one step share an element or lie outside the arena. It
// returns the largest sum of live slots any step sees: no layout needs less.
// A laid-out Concat writes nothing: its slot is its inputs', born with them.
func replayLayout(t *testing.T, name string, p *nn.Plan) (peak int) {
	t.Helper()
	steps, perSample := p.Steps()
	type slot struct{ node, off, size int }
	var alive []slot
	for _, s := range steps {
		if s.Laid {
			if len(s.Frees) != 0 {
				t.Fatalf("%s: the laid-out Concat %d frees %v", name, s.Node, s.Frees)
			}
			continue
		}
		born := []slot{{s.Out, s.Off, s.Size}}
		if s.Band != nil && s.Band.Reorg >= 0 {
			r := p.Slot(s.Band.Reorg)
			born = append(born, slot{s.Band.Reorg, r.Off, r.Size})
		}
		for _, b := range born {
			if b.off < 0 {
				continue // the graph output
			}
			if b.off+b.size > perSample {
				t.Fatalf("%s: node %d's slot [%d, %d) ends beyond the arena of %d", name, b.node, b.off, b.off+b.size, perSample)
			}
			for _, a := range alive {
				if a.off < b.off+b.size && b.off < a.off+a.size {
					t.Fatalf("%s: at the step of node %d, node %d's slot [%d, %d) overlaps node %d's [%d, %d), still alive",
						name, s.Node, b.node, b.off, b.off+b.size, a.node, a.off, a.off+a.size)
				}
			}
			alive = append(alive, b)
		}
		sum := 0
		for _, a := range alive {
			sum += a.size
		}
		peak = max(peak, sum)
		for _, f := range s.Frees {
			k := 0
			for _, a := range alive {
				if a.node != f {
					alive[k] = a
					k++
				}
			}
			if k != len(alive)-1 {
				t.Fatalf("%s: the step of node %d frees node %d, which has %d live slots", name, s.Node, f, len(alive)-k)
			}
			alive = alive[:k]
		}
	}
	return peak
}

// TestLayoutPacksLifetimes is the arena rule as a property of Steps: over the
// generated bypasses and Bundles, SkyNet A, B and C at the deployed size and a
// quarter of it, and the baselines, no two slots alive at the same step share
// an element, and the arena is at least the largest live sum. For the SkyNets
// it is exactly that — the packer loses nothing, the elements under Bundle 5's
// channels serving pool 3 first — and no backbone needs more than the
// first-fit layout this one replaced gave it.
func TestLayoutPacksLifetimes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 60; i++ {
		c := genBundle(rng)
		if i%2 == 0 {
			c = genBypass(rng)
		}
		p := nn.Compile(c.g, c.x.Shape(), nil)
		_, perSample := p.Steps()
		if peak := replayLayout(t, c.name, p); perSample < peak {
			t.Fatalf("%s: an arena of %d for a live sum of %d", c.name, perSample, peak)
		}
	}
	sky := func(v backbone.SkyNetVariant, width float64) *nn.Graph {
		return backbone.SkyNet(rng, backbone.Config{Width: width, InC: 3, HeadChannels: 10, ReLU6: true}, v)
	}
	small := backbone.Config{Width: 0.25, InC: 3, MaxStride: 8}
	for _, m := range []struct {
		name   string
		g      *nn.Graph
		h, w   int
		parent int  // perSample under the first-fit layout
		tight  bool // perSample is the largest live sum
	}{
		{"SkyNetA", sky(backbone.VariantA, 1), 160, 320, 921_600, true},
		{"SkyNetB", sky(backbone.VariantB, 1), 160, 320, 2_099_200, true},
		{"SkyNetC", sky(backbone.VariantC, 1), 160, 320, 2_099_200, true},
		{"SkyNetA/0.25", sky(backbone.VariantA, 0.25), 48, 96, 20_736, true},
		{"SkyNetB/0.25", sky(backbone.VariantB, 0.25), 48, 96, 47_232, true},
		{"SkyNetC/0.25", sky(backbone.VariantC, 0.25), 48, 96, 47_232, true},
		{"ResNet18", backbone.ResNet18(rng, small), 64, 64, 28_672, false},
		{"ResNet34", backbone.ResNet34(rng, small), 64, 64, 28_672, false},
		{"ResNet50", backbone.ResNet50(rng, small), 64, 64, 98_304, false},
		{"VGG16", backbone.VGG16(rng, small), 64, 64, 131_072, false},
		{"MobileNetV1", backbone.MobileNetV1(rng, small), 64, 64, 40_960, false},
	} {
		p := nn.Compile(m.g, []int{1, 3, m.h, m.w}, nil)
		_, perSample := p.Steps()
		peak := replayLayout(t, m.name, p)
		if perSample < peak || m.tight && perSample != peak {
			t.Errorf("%s: an arena of %d for a live sum of %d (exactly that: %v)", m.name, perSample, peak, m.tight)
		}
		if perSample > m.parent {
			t.Errorf("%s: an arena of %d, the first-fit layout needed %d", m.name, perSample, m.parent)
		}
		t.Logf("%-14s arena %8d  live sum %8d  first-fit %8d", m.name, perSample, peak, m.parent)
	}
}
