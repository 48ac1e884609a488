package nn_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
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
// — one lane — neither shrinks nor regrows the arena; the executor's Release
// drops it, its arena being every one of its plans'.
func TestArenaBoundedByLanes(t *testing.T) {
	g, rng := skyNetC(0.25, 31)
	_, perSample := nn.Compile(g, []int{1, 3, 32, 64}, nil).Steps()
	parallelism(2, func() {
		if n := nn.LanesFor(16); n != 2 {
			t.Fatalf("LanesFor(16) on two workers = %d", n)
		}
		g.Forward(randBatch(rng, 16, 3, 32, 64), false)
		arena, lanes := nn.Arena(nn.Executor(g))
		if len(arena) != 2*perSample || lanes != 2 {
			t.Fatalf("a batch of 16 on two workers left an arena of %d elements on %d lanes, want 2 × %d on 2", len(arena), lanes, perSample)
		}
		g.Forward(randBatch(rng, 1, 3, 32, 64), false)
		if after, _ := nn.Arena(nn.Executor(g)); len(after) != len(arena) || &after[0] != &arena[0] {
			t.Fatalf("a batch of 1 afterwards replaced the arena (%d elements, was %d)", len(after), len(arena))
		}
	})
	nn.Executor(g).Release()
	if arena, lanes := nn.Arena(nn.Executor(g)); arena != nil || lanes != 0 {
		t.Fatalf("Release left %d elements and %d lanes", len(arena), lanes)
	}
	requireSameBits(t, "a forward after Release", g.Forward(randBatch(rand.New(rand.NewSource(1)), 2, 3, 32, 64), false),
		g.Walk(randBatch(rand.New(rand.NewSource(1)), 2, 3, 32, 64), nil))
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
	wantSky, wantVGG := g.Walk(x, nil), vgg.Walk(xv, nil)
	for _, w := range []int{2, 3} {
		parallelism(w, func() {
			for rep := 0; rep < 3; rep++ {
				requireSameBits(t, fmt.Sprintf("SkyNet C on %d lanes", w), g.Forward(x, false), wantSky)
				requireSameBits(t, fmt.Sprintf("SkyNet C masked on %d lanes", w), nn.Compile(g, x.Shape(), mask).Run(x, nil), wantSky)
				requireSameBits(t, fmt.Sprintf("VGG16 on %d lanes", w), vgg.Forward(xv, false), wantVGG)
			}
		})
	}
	if _, lanes := nn.Arena(nn.Executor(g)); lanes != 3 {
		t.Fatalf("SkyNet C has run on %d lanes at most, want 3", lanes)
	}
}

// TestObservedRunIsOneLaneInOrder: an observed run stays on one lane, leaves
// a one-sample arena and returns the walk's bits, and its observer is shown
// every map the plan computes. Whole, sample after sample, in node order
// within one: each step's output and the laid-out Concat; once per sample,
// the reordered map the bypass source gathers. In pieces, band by band and
// from three workers at once: each Bundle's depth-wise map and, under a pool,
// the map before it — all of it, the pieces' elements summing to the map's
// over the batch, and their max-abs the map's. At 34 rows Bundle 2's input
// has an odd row count, so the row below its last pool window, which only an
// observed step computes, is in the count.
func TestObservedRunIsOneLaneInOrder(t *testing.T) {
	g, rng := skyNetC(0.25, 33)
	x := randBatch(rng, 4, 3, 34, 64)
	n := x.Dim(0)
	nn.SetBandBudget(t, 1) // a band of one pool window
	p := nn.Compile(g, x.Shape(), nil)
	steps, perSample := p.Steps()
	var nodes []*tensor.Tensor
	want := g.Walk(x, func(i int, out *tensor.Tensor) { nodes = append(nodes, out) })
	whole, pieces, reorg := make([]bool, len(g.Nodes)), make([]bool, len(g.Nodes)), -1
	var wholeOrder []int
	for i, nd := range g.Nodes {
		if _, ok := nd.Layer.(*nn.Concat); ok {
			whole[i] = true // SkyNet C's is laid out: TestSkyNetCArenaWithoutBundleInteriors
		}
	}
	for _, s := range steps {
		whole[s.Out] = true
		if b := s.Band; b != nil {
			pieces[s.Node] = true
			if b.Pool >= 0 {
				pieces[s.Chain.Last(b.Conv)] = true
			}
			if b.Reorg >= 0 {
				reorg = b.Reorg
			}
		}
	}
	for i := range whole {
		if whole[i] {
			wholeOrder = append(wholeOrder, i)
		}
	}
	if reorg < 0 {
		t.Fatal("SkyNet C's plan folds no Reorg")
	}
	var mu sync.Mutex
	calls, elems, maxAbs := make([]int, len(g.Nodes)), make([]int, len(g.Nodes)), make([]float32, len(g.Nodes))
	seen := make([][]float32, len(g.Nodes))
	var order []int
	parallelism(3, func() {
		got := p.Run(x, func(node int, data []float32) {
			mu.Lock()
			defer mu.Unlock()
			calls[node]++
			if pieces[node] {
				elems[node] += len(data)
				maxAbs[node] = max(maxAbs[node], tensor.MaxAbsFinite(data))
				return
			}
			if whole[node] {
				order = append(order, node)
			}
			seen[node] = append(seen[node], data...)
		})
		requireSameBits(t, "observed run", got, want)
	})
	for i, nd := range g.Nodes {
		switch {
		case pieces[i]:
			if calls[i] < 2*n || elems[i] != nodes[i].Len() || maxAbs[i] != tensor.MaxAbsFinite(nodes[i].Data) {
				t.Errorf("node %d (%s) shown in %d pieces of %d elements in all, max-abs %v; want ≥ 2 a sample, %d, %v",
					i, nd.Layer.Name(), calls[i], elems[i], maxAbs[i], nodes[i].Len(), tensor.MaxAbsFinite(nodes[i].Data))
			}
		case whole[i] || i == reorg:
			if calls[i] != n {
				t.Fatalf("node %d (%s) shown %d times, want once a sample", i, nd.Layer.Name(), calls[i])
			}
			requireSameBits(t, fmt.Sprintf("node %d as observed", i), tensor.FromSlice(seen[i], nodes[i].Shape()...), nodes[i])
		case calls[i] != 0:
			t.Errorf("node %d (%s) is computed inside a step's store and was observed", i, nd.Layer.Name())
		}
	}
	if len(order) != n*len(wholeOrder) {
		t.Fatalf("observed whole %v, want %v once a sample", order, wholeOrder)
	}
	for s := 0; s < n; s++ {
		if got := order[s*len(wholeOrder) : (s+1)*len(wholeOrder)]; !slices.Equal(got, wholeOrder) {
			t.Fatalf("sample %d: observed whole %v, want %v: every step's output and the Concat, in node order", s, got, wholeOrder)
		}
	}
	if arena, lanes := nn.Arena(p.Cache()); len(arena) != perSample || lanes != 1 {
		t.Fatalf("an observed batch of 4 on three workers left %d elements on %d lanes, want one sample's %d on 1", len(arena), lanes, perSample)
	}
}

// TestBatchInvariance is the property the lanes must hold, over SkyNet A, B
// and C at three widths on odd-sized frames: the forward of a batch of 1..6,
// at every pair of worker counts 1..4 × 1..4 (nn's and tensor's, the lane
// count going by the smaller) and under each micro-kernel, is bit for bit the
// one-worker forward, the concatenation of its frames' own forwards and the
// layer walk.
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
					want := g.Walk(x, nil)
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
				})
			}
		}
	}
}
