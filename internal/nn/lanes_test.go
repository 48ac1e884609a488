package nn_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// workers pins the two worker counts separately for fn: the lane count goes
// by the smaller.
func workers(nnWorkers, gemmWorkers int, fn func()) {
	oldNN, oldT := nn.MaxParallelism, tensor.MaxParallelism
	nn.MaxParallelism, tensor.MaxParallelism = nnWorkers, gemmWorkers
	defer func() { nn.MaxParallelism, tensor.MaxParallelism = oldNN, oldT }()
	fn()
}

// TestArenaBoundedByLanes: the arena is one sample's per lane, whatever the
// batch. Two workers take a batch of 16 on two regions; a batch of 1 after it
// — one lane — neither shrinks nor regrows the arena; ReleaseArena drops it.
func TestArenaBoundedByLanes(t *testing.T) {
	g, rng := skyNetC(0.25, 31)
	_, perSample := nn.Compile(g, []int{1, 3, 32, 64}, nil).Steps()
	parallelism(2, func() {
		if n := nn.LanesFor(16); n != 2 {
			t.Fatalf("LanesFor(16) on two workers = %d", n)
		}
		g.Forward(randBatch(rng, 16, 3, 32, 64), false)
		arena, lanes := nn.Arena(g)
		if len(arena) != 2*perSample || lanes != 2 {
			t.Fatalf("a batch of 16 on two workers left an arena of %d elements on %d lanes, want 2 × %d on 2", len(arena), lanes, perSample)
		}
		g.Forward(randBatch(rng, 1, 3, 32, 64), false)
		if after, _ := nn.Arena(g); len(after) != len(arena) || &after[0] != &arena[0] {
			t.Fatalf("a batch of 1 afterwards replaced the arena (%d elements, was %d)", len(after), len(arena))
		}
	})
	g.ReleaseArena()
	if arena, lanes := nn.Arena(g); arena != nil || lanes != 0 {
		t.Fatalf("ReleaseArena left %d elements and %d lanes", len(arena), lanes)
	}
	requireSameBits(t, "a forward after ReleaseArena", g.Forward(randBatch(rand.New(rand.NewSource(1)), 2, 3, 32, 64), false),
		walk(g, randBatch(rand.New(rand.NewSource(1)), 2, 3, 32, 64), nil))
}

// TestLanesShareNoOperand runs two and three lanes side by side over every
// kind of step — SkyNet C's Bundle steps with and without a folded pool, its
// stand-alone pool, reorg, concat and head convolution, and, under a mask,
// stand-alone depth-wise and point-wise convolutions with a fused tail, a
// lone batch norm and a lone activation; then a k×k convolution on per-lane
// im2col scratch. Under -race a layer or plan field written during a walk is
// a report; without it the bits still have to be the layer walk's.
func TestLanesShareNoOperand(t *testing.T) {
	g, rng := skyNetC(0.25, 32)
	x := randBatch(rng, 5, 3, 32, 64)
	requireBundleSteps(t, g, x)
	mask := make([]bool, len(g.Nodes))
	mask[0], mask[6], mask[7] = true, true, true // Bundle 1's DW; Bundle 2's PW and BN, which leaves its DW and activation alone too
	vgg := backbone.VGG16(rng, backbone.Config{Width: 0.125, InC: 3, MaxStride: 8})
	unsettle(vgg, rng)
	xv := randBatch(rng, 4, 3, 48, 48)
	wantSky, wantVGG := walk(g, x, nil), walk(vgg, xv, nil)
	for _, w := range []int{2, 3} {
		parallelism(w, func() {
			for rep := 0; rep < 3; rep++ {
				requireSameBits(t, fmt.Sprintf("SkyNet C on %d lanes", w), g.Forward(x, false), wantSky)
				requireSameBits(t, fmt.Sprintf("SkyNet C masked on %d lanes", w), nn.Compile(g, x.Shape(), mask).Run(x, nil), wantSky)
				requireSameBits(t, fmt.Sprintf("VGG16 on %d lanes", w), vgg.Forward(xv, false), wantVGG)
			}
		})
	}
	if _, lanes := nn.Arena(g); lanes != 3 {
		t.Fatalf("SkyNet C has run on %d lanes at most, want 3", lanes)
	}
}

// TestObservedRunIsOneLaneInOrder: an observer is shown a node's values
// sample by sample, in batch order — calibration's percentile sketch depends
// on it — so an observed run stays on one lane and leaves a one-sample arena.
// What it is shown: the output of every step, and a Concat that is laid out,
// not computed, whole, once its last input is written; what no step's output
// is — the maps inside a Bundle, at the bypass source the reordered map on its
// own — it never sees.
func TestObservedRunIsOneLaneInOrder(t *testing.T) {
	g, rng := skyNetC(0.25, 33)
	x := randBatch(rng, 4, 3, 32, 64)
	p := nn.Compile(g, x.Shape(), nil)
	steps, perSample := p.Steps()
	var nodes []*tensor.Tensor
	want := walk(g, x, func(i int, out *tensor.Tensor) { nodes = append(nodes, out) })
	seen := make([][]float32, len(g.Nodes))
	var order []int
	parallelism(3, func() {
		got := p.Run(x, func(node int, data []float32) {
			if seen[node] == nil {
				order = append(order, node)
			}
			seen[node] = append(seen[node], data...)
		})
		requireSameBits(t, "observed run", got, want)
	})
	shown := make([]bool, len(g.Nodes))
	for _, s := range steps {
		shown[s.Out] = true
	}
	concats := 0
	for i, n := range g.Nodes {
		if _, ok := n.Layer.(*nn.Concat); ok {
			shown[i] = true // SkyNet C's is laid out: TestSkyNetCArenaWithoutBundleInteriors
			concats++
		}
		if !shown[i] {
			if seen[i] != nil {
				t.Errorf("node %d (%s) has no step of its own and was observed", i, n.Layer.Name())
			}
			continue
		}
		if seen[i] == nil {
			t.Fatalf("node %d (%s) was not observed", i, n.Layer.Name())
		}
		requireSameBits(t, fmt.Sprintf("node %d as observed", i), tensor.FromSlice(seen[i], nodes[i].Shape()...), nodes[i])
	}
	if concats != 1 || len(order) != len(steps)+1 || !slices.IsSorted(order) {
		t.Fatalf("observed nodes %v: want the %d steps' outputs and the Concat, in node order", order, len(steps))
	}
	if arena, lanes := nn.Arena(g); len(arena) != perSample || lanes != 1 {
		t.Fatalf("an observed batch of 4 on three workers left %d elements on %d lanes, want one sample's %d on 1", len(arena), lanes, perSample)
	}
}

// TestBatchInvariance is the property the lanes must hold, over SkyNet A, B
// and C at three widths on odd-sized frames: the forward of a batch of 1..6,
// at every pair of worker counts 1..4 × 1..4 (nn's and tensor's, the lane
// count going by the smaller) and under each micro-kernel, is bit for bit the
// one-worker forward, the concatenation of its frames' own forwards, the
// hooked forward and the layer walk.
func TestBatchInvariance(t *testing.T) {
	widths, batches, counts := []float64{0.125, 0.25, 0.5}, []int{1, 2, 3, 4, 5, 6}, []int{1, 2, 3, 4}
	if testing.Short() {
		widths, batches, counts = []float64{0.25}, []int{1, 3, 4}, []int{1, 2, 3}
	}
	sizes := [][2]int{{9, 19}, {17, 11}, {11, 25}}
	for vi, v := range []backbone.SkyNetVariant{backbone.VariantA, backbone.VariantB, backbone.VariantC} {
		for wi, width := range widths {
			rng := rand.New(rand.NewSource(int64(40 + vi)))
			g := backbone.SkyNet(rng, backbone.Config{Width: width, InC: 3, HeadChannels: 10, ReLU6: true}, v)
			unsettle(g, rng)
			h, w := sizes[(vi+wi)%3][0], sizes[(vi+wi)%3][1]
			for _, b := range batches {
				name := fmt.Sprintf("SkyNet%s/width%v/%dx%dx%d", v, width, b, h, w)
				x := randBatch(rng, b, 3, h, w)
				var first *tensor.Tensor
				withKernels(t, func(kernel string) {
					what := name + " kernel=" + kernel
					want := walk(g, x, nil)
					if first == nil {
						first = want
					}
					requireSameBits(t, what+": the walk against the first kernel's", want, first)
					per, outPer := x.Len()/b, want.Len()/b
					workers(1, 1, func() {
						requireSameBits(t, what+", one worker", g.Forward(x, false), want)
						for i := 0; i < b; i++ {
							one := g.Forward(tensor.FromSlice(x.Data[i*per:(i+1)*per], 1, 3, h, w), false)
							requireSameBits(t, fmt.Sprintf("%s, frame %d alone", what, i), one,
								tensor.FromSlice(want.Data[i*outPer:(i+1)*outPer], one.Shape()...))
						}
					})
					for _, nw := range counts {
						for _, tw := range counts {
							workers(nw, tw, func() {
								requireSameBits(t, fmt.Sprintf("%s, workers %d×%d", what, nw, tw), g.Forward(x, false), want)
							})
						}
					}
					g.FMHook = func(int, *tensor.Tensor) {}
					workers(2, 2, func() { requireSameBits(t, what+", hooked", g.Forward(x, false), want) })
					g.FMHook = nil
				})
			}
		}
	}
}
