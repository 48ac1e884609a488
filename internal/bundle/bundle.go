// Package bundle implements Stage 1 of the paper's bottom-up design flow
// (§4.1): enumerating hardware-aware basic blocks ("Bundles") from a pool
// of DNN components, evaluating each Bundle's realistic hardware cost
// (FPGA latency and resources via the fpga model, GPU latency via the hw
// roofline) and its potential accuracy (by fast-training a DNN sketch with
// fixed front- and back-ends and the Bundle replicated in the middle), and
// selecting the Bundles on the accuracy/latency Pareto frontier. Chain is
// the one builder of a Bundle chain: the sketches, the searched candidates
// and their winner, and SkyNet itself are chains.
package bundle

import (
	"fmt"
	"math/rand"
	"strings"

	"skynet/internal/nn"
)

// Component is one DNN layer type from the enumeration pool.
type Component int

// The component pool of §4.1 ("Conv, pooling, activation layers, etc.").
const (
	Conv3 Component = iota // 3×3 convolution
	Conv5                  // 5×5 convolution
	Conv1                  // 1×1 convolution
	DW3                    // 3×3 depth-wise convolution
	DW5                    // 5×5 depth-wise convolution
	PW                     // 1×1 point-wise convolution
	BN                     // batch normalization
	ReLU                   // rectifier
	ReLU6                  // clipped rectifier
)

// String names the component.
func (c Component) String() string {
	return [...]string{"Conv3", "Conv5", "Conv1", "DW3", "DW5", "PW", "BN", "ReLU", "ReLU6"}[c]
}

// Bundle is an ordered set of components that is stacked repeatedly to
// form DNNs. From the hardware perspective it is the single IP that every
// layer shares on the FPGA.
type Bundle struct {
	ID         int
	Components []Component
}

// Name renders e.g. "DW3+PW+BN+ReLU6".
func (b Bundle) Name() string {
	parts := make([]string, len(b.Components))
	for i, c := range b.Components {
		parts[i] = c.String()
	}
	return strings.Join(parts, "+")
}

// WithReLU6 returns a copy of the Bundle with every plain ReLU replaced by
// ReLU6 — Stage 3's hardware-efficiency feature addition (§4.3).
func (b Bundle) WithReLU6() Bundle {
	out := Bundle{ID: b.ID, Components: append([]Component(nil), b.Components...)}
	for i, c := range out.Components {
		if c == ReLU {
			out.Components[i] = ReLU6
		}
	}
	return out
}

// Enumerate assembles the candidate Bundles: every convolution pattern from
// the pool combined with batch normalization and each activation. This is
// the "Bundle 1∼n" enumeration of Figure 3.
func Enumerate() []Bundle {
	convPatterns := [][]Component{
		{Conv3}, {Conv5}, {Conv1},
		{DW3, PW}, {DW5, PW},
		{Conv3, Conv1},
	}
	acts := []Component{ReLU, ReLU6}
	var out []Bundle
	id := 0
	for _, conv := range convPatterns {
		for _, act := range acts {
			comps := append(append([]Component{}, conv...), BN, act)
			out = append(out, Bundle{ID: id, Components: comps})
			id++
		}
	}
	return out
}

// ByID resolves a Bundle from the enumeration pool by its stable ID, so a
// persisted architecture description (modelspec's "search" family) can name
// its Bundle without serializing the component list. The second result is
// false when no enumerated Bundle carries the ID.
func ByID(id int) (Bundle, bool) {
	for _, b := range Enumerate() {
		if b.ID == id {
			return b, true
		}
	}
	return Bundle{}, false
}

// Build instantiates the Bundle as layers transforming inC channels to
// outC channels, and reports the output channel count (= outC).
func (b Bundle) Build(rng *rand.Rand, inC, outC int) []nn.Layer {
	var layers []nn.Layer
	cur := inC
	// The channel expansion happens at the first non-depth-wise
	// convolution; depth-wise layers preserve their channel count.
	for _, c := range b.Components {
		switch c {
		case Conv3:
			layers = append(layers, nn.NewConv2D(rng, cur, outC, 3, 1, 1, false))
			cur = outC
		case Conv5:
			layers = append(layers, nn.NewConv2D(rng, cur, outC, 5, 1, 2, false))
			cur = outC
		case Conv1, PW:
			layers = append(layers, nn.NewPWConv1(rng, cur, outC, false))
			cur = outC
		case DW3:
			layers = append(layers, nn.NewDWConv3(rng, cur, 3, false))
		case DW5:
			layers = append(layers, nn.NewDWConv3(rng, cur, 5, false))
		case BN:
			layers = append(layers, nn.NewBatchNorm(cur))
		case ReLU:
			layers = append(layers, nn.NewReLU())
		case ReLU6:
			layers = append(layers, nn.NewReLU6())
		default:
			panic(fmt.Sprintf("bundle: unknown component %v", c))
		}
	}
	if cur != outC {
		// A bundle of only depth-wise layers cannot change width; append a
		// point-wise projection so stacking stays well-formed.
		layers = append(layers, nn.NewPWConv1(rng, cur, outC, false))
	}
	return layers
}

// Chain is one Bundle chain, the shape of every network the flow builds:
// SkyNet A/B/C, Stage 1's sketches, Stage 2's candidates and Stage 3's
// winner. Slot i is Bundle widened to Channels[i] (slot 0 is Stem instead,
// when set), a 2×2 pooling follows each slot listed in PoolAfter, and a
// HeadC-channel point-wise regression head ends the chain when HeadC > 0.
// With Bypass, and room for it (a pooling with a slot after it), the last
// slot becomes the fusion Bundle of Figure 4: the output of the slot before
// the last pooling is space-to-depth reordered and concatenated into its
// input.
type Chain struct {
	Stem       *Bundle
	Bundle     Bundle
	Channels   []int
	PoolAfter  []int
	InC, HeadC int
	Bypass     bool
}

// Build wires the chain, drawing its weights from rng in node order, and
// reports whether the bypass was applied.
func (c Chain) Build(rng *rand.Rand) (*nn.Graph, bool) {
	g := nn.NewGraph()
	poolAfter := map[int]bool{}
	lastPool := -1
	for _, p := range c.PoolAfter {
		poolAfter[p] = true
		lastPool = max(lastPool, p)
	}
	slots := len(c.Channels)
	bypass := c.Bypass && lastPool >= 0 && lastPool < slots-1

	node := nn.GraphInput
	add := func(b Bundle, in, out int) {
		for _, l := range b.Build(rng, in, out) {
			node = g.Add(l, node)
		}
	}
	cur := c.InC
	srcNode, srcC := -1, 0
	stop := slots
	if bypass {
		stop = slots - 1 // the final slot becomes the fusion bundle
	}
	for s := 0; s < stop; s++ {
		b := c.Bundle
		if s == 0 && c.Stem != nil {
			b = *c.Stem
		}
		add(b, cur, c.Channels[s])
		cur = c.Channels[s]
		if s == lastPool && bypass {
			srcNode, srcC = node, cur
		}
		if poolAfter[s] {
			node = g.Add(nn.NewMaxPool(2), node)
		}
	}
	if bypass {
		reorg := g.Add(nn.NewReorg(2), srcNode)
		node = g.Add(nn.NewConcat(), node, reorg)
		add(c.Bundle, cur+4*srcC, c.Channels[slots-1])
		cur = c.Channels[slots-1]
	}
	if c.HeadC > 0 {
		g.Add(nn.NewPWConv1(rng, cur, c.HeadC, true), node)
	}
	return g, bypass
}

// Sketch builds the Bundle's Stage 1 probe network (§4.1): a fixed
// front-end — one 16-channel slot of Conv3+BN+ReLU, then a pooling — the
// Bundle at 24, 48 and 64 channels with poolings after the first two, and
// the 10-channel box-regression back-end.
func (b Bundle) Sketch(rng *rand.Rand) *nn.Graph {
	stem := Bundle{Components: []Component{Conv3, BN, ReLU}}
	g, _ := Chain{Stem: &stem, Bundle: b, Channels: []int{16, 24, 48, 64},
		PoolAfter: []int{0, 1, 2}, InC: 3, HeadC: 10}.Build(rng)
	return g
}
