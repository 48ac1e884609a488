package nn_test

import (
	"fmt"
	"math/rand"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// bundleCase is one generated Bundle: DW 3×3 → PW 1×1 → [BN] → [ReLU/ReLU6]
// → [pool], on an input sized in bands of the case's own budget.
type bundleCase struct {
	name  string
	g     *nn.Graph
	x     *tensor.Tensor
	pool  bool
	bytes int // the band budget that gives bands of the case's rows
}

// genBundle draws a Bundle over the whole grid the band step has to hold:
// 1..70 channels on either side or a wide case whose k spans two GEMM k
// blocks, bands of 1..4 pool windows with the image 1..2R+1 rows and columns
// of the depth-wise output (odd sizes, a cropped last window, fewer rows
// than a band), batches of 1..5, pooling by 2, by 3 or not at all, a
// depth-wise stride of 1 or 2, and bias, batch norm and the clamp each on
// or off.
func genBundle(rng *rand.Rand) bundleCase {
	inC, outC := 1+rng.Intn(70), 1+rng.Intn(70)
	if rng.Intn(6) == 0 {
		inC, outC = 257+rng.Intn(60), 1+rng.Intn(4) // k > gemmKC, few enough MACs that a band alone would run unblocked
	}
	k := []int{0, 2, 3}[rng.Intn(3)]
	stride := 1 + rng.Intn(2)
	unit := max(k, 1)
	rows := unit * (1 + rng.Intn(4))
	oh, ow := max(unit, 1+rng.Intn(2*rows+1)), max(unit, 1+rng.Intn(2*rows+1))
	// An input whose depth-wise output is oh×ow: stride·(o-1)+1, and for
	// stride 2 sometimes the even size that gives the same.
	h, w := stride*(oh-1)+1+rng.Intn(stride), stride*(ow-1)+1+rng.Intn(stride)
	n := 1 + rng.Intn(5)

	g := nn.NewGraph()
	dw := nn.NewDWConv3(rng, inC, 3, rng.Intn(2) == 0)
	dw.Stride = stride
	g.Add(dw, nn.GraphInput)
	g.Add(nn.NewPWConv1(rng, inC, outC, rng.Intn(2) == 0))
	name := fmt.Sprintf("%d->%d/%dx%dx%d/stride%d/rows%d", inC, outC, n, h, w, stride, rows)
	if rng.Intn(2) == 0 {
		g.Add(nn.NewBatchNorm(outC))
		name += "/bn"
	}
	switch rng.Intn(3) {
	case 0:
		g.Add(nn.NewReLU6())
		name += "/relu6"
	case 1:
		g.Add(nn.NewReLU())
		name += "/relu"
	}
	perRow := inC
	if k > 0 {
		g.Add(nn.NewMaxPool(k))
		g.Add(nn.NewReLU()) // a pool that ends the graph is not folded in
		name += fmt.Sprintf("/pool%d", k)
		perRow += outC
	} else if rng.Intn(2) == 0 {
		g.Add(nn.NewReorg(1)) // else the step writes the graph output itself
	}
	unsettle(g, rng)
	if dw.Bias != nil {
		dw.Bias.W.RandNormal(rng, 0, 0.3)
	}
	return bundleCase{name: name, g: g, x: randBatch(rng, n, inC, h, w), pool: k > 0, bytes: 4 * ow * perRow * rows}
}

// withKernels runs fn under the pure-Go micro-kernel and, where the binary
// has it, the AVX2 one, and restores the kernel in use.
func withKernels(t testing.TB, fn func(kernel string)) {
	t.Helper()
	old := tensor.KernelName()
	defer func() {
		if err := tensor.SetKernel(old); err != nil {
			t.Fatalf("restoring kernel %q: %v", old, err)
		}
	}()
	for _, name := range []string{"purego", "avx2"} {
		if !tensor.HasKernel(name) {
			continue
		}
		if err := tensor.SetKernel(name); err != nil {
			t.Fatalf("SetKernel(%q): %v", name, err)
		}
		fn(name)
	}
}

// requirePlanIsWalk holds the plan of g under mask to the layer walk on x,
// bit for bit: compiled, with one worker and three, and hooked — where
// nothing fuses and the hook must see every node as the walk computes it —
// under each micro-kernel, which must also agree with each other. Released
// arena slots are poisoned throughout.
func requirePlanIsWalk(t *testing.T, name string, g *nn.Graph, x *tensor.Tensor, mask []bool) {
	t.Helper()
	nn.PoisonReleased(t)
	var first *tensor.Tensor
	withKernels(t, func(kernel string) {
		what := name + " kernel=" + kernel
		nodes := make([]*tensor.Tensor, len(g.Nodes))
		want := walk(g, x, func(i int, out *tensor.Tensor) { nodes[i] = out })
		if first == nil {
			first = want
		}
		requireSameBits(t, what+": the walk against the first kernel's", want, first)
		for _, workers := range []int{1, 3} {
			parallelism(workers, func() {
				got := nn.Compile(g, x.Shape(), mask).Run(x, nil)
				requireSameBits(t, fmt.Sprintf("%s, %d workers", what, workers), got, want)
			})
		}
		g.FMHook = func(i int, out *tensor.Tensor) {
			requireSameBits(t, fmt.Sprintf("%s: node %d as the hook saw it", what, i), out, nodes[i])
		}
		got := nn.Compile(g, x.Shape(), mask).Run(x, nil)
		g.FMHook = nil
		requireSameBits(t, what+", hooked", got, want)
	})
}

// bandOf returns the Bundle step of the plan of g under mask, nil when it
// has none, and fails when it has two.
func bandOf(t *testing.T, g *nn.Graph, shape []int, mask []bool) *nn.Band {
	t.Helper()
	var band *nn.Band
	steps, _ := nn.Compile(g, shape, mask).Steps()
	for _, s := range steps {
		if s.Band != nil {
			if band != nil {
				t.Fatal("two Bundle steps in a graph of one Bundle")
			}
			band = s.Band
		}
	}
	return band
}

// TestBundleStepMatchesLayerWalk is the band step's contract over generated
// Bundles: layer walk ≡ compiled plan ≡ hooked, unfused plan, bit for bit.
func TestBundleStepMatchesLayerWalk(t *testing.T) {
	cases := 150
	if testing.Short() {
		cases = 40
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < cases; i++ {
		c := genBundle(rng)
		nn.SetBandBudget(t, c.bytes)
		band := bandOf(t, c.g, c.x.Shape(), nil)
		if band == nil || (band.Pool >= 0) != c.pool {
			t.Fatalf("%s: compiled to %+v, want one Bundle step, its pool folded in: %v", c.name, band, c.pool)
		}
		requirePlanIsWalk(t, c.name, c.g, c.x, nil)
	}
}

// TestBundleStepLeavesAlone builds the neighbourhoods a Bundle step must not
// swallow — every intermediate map somebody else reads, every marked node —
// and checks both that the plan keeps them apart and that it is still the
// layer walk.
func TestBundleStepLeavesAlone(t *testing.T) {
	nn.SetBandBudget(t, 4*8*(6+10)*2) // bands of two rows on the 8-wide maps below
	rng := rand.New(rand.NewSource(21))
	// bundle appends DW → PW → BN → ReLU6 to g and returns the four nodes.
	bundle := func(g *nn.Graph) (dw, pw, bn, act int) {
		dw = g.Add(nn.NewDWConv3(rng, 6, 3, true), nn.GraphInput)
		pw = g.Add(nn.NewPWConv1(rng, 6, 10, true), dw)
		bn = g.Add(nn.NewBatchNorm(10), pw)
		return dw, pw, bn, g.Add(nn.NewReLU6(), bn)
	}
	mark := func(g *nn.Graph, i int) []bool {
		mask := make([]bool, len(g.Nodes))
		mask[i] = true
		return mask
	}
	for _, c := range []struct {
		name  string
		build func(g *nn.Graph) (mask []bool)
		band  bool // a Bundle step remains
	}{
		{"the depth-wise map has two consumers", func(g *nn.Graph) []bool {
			dw, _, _, act := bundle(g)
			g.Add(nn.NewConcat(), act, g.Add(nn.NewReLU(), dw))
			return nil
		}, false},
		{"the pre-pool map has two consumers", func(g *nn.Graph) []bool { // SkyNet C's Bundle 3
			_, _, _, act := bundle(g)
			g.Add(nn.NewConcat(), g.Add(nn.NewMaxPool(2), act), g.Add(nn.NewReorg(2), act))
			return nil
		}, true},
		{"the pool is the graph output", func(g *nn.Graph) []bool {
			bundle(g)
			g.Add(nn.NewMaxPool(2))
			return nil
		}, true},
		{"a 3×3 convolution follows the depth-wise one", func(g *nn.Graph) []bool {
			g.Add(nn.NewDWConv3(rng, 6, 3, false), nn.GraphInput)
			g.Add(nn.NewConv2D(rng, 6, 10, 3, 1, 1, true))
			g.Add(nn.NewMaxPool(2))
			g.Add(nn.NewReLU())
			return nil
		}, false},
		{"the depth-wise node is marked", func(g *nn.Graph) []bool {
			dw, _, _, _ := bundle(g)
			g.Add(nn.NewMaxPool(2))
			g.Add(nn.NewReLU())
			return mark(g, dw)
		}, false},
		{"the convolution is marked", func(g *nn.Graph) []bool {
			_, pw, _, _ := bundle(g)
			g.Add(nn.NewMaxPool(2))
			g.Add(nn.NewReLU())
			return mark(g, pw)
		}, false},
		{"the pool is marked", func(g *nn.Graph) []bool {
			bundle(g)
			pool := g.Add(nn.NewMaxPool(2))
			g.Add(nn.NewReLU())
			return mark(g, pool)
		}, true},
	} {
		g := nn.NewGraph()
		mask := c.build(g)
		unsettle(g, rng)
		x := randBatch(rng, 3, 6, 8, 8)
		band := bandOf(t, g, x.Shape(), mask)
		if (band != nil) != c.band || band != nil && band.Pool >= 0 {
			t.Errorf("%s: compiled to the Bundle step %+v; want one: %v, and no pool folded in", c.name, band, c.band)
		}
		requirePlanIsWalk(t, c.name, g, x, mask)
	}
}

// TestSkyNetCArenaWithoutBundleInteriors pins what the Bundle step is for:
// at the deployed size no depth-wise map and no map only a pool reads gets
// an arena slot, and a sample's arena is 2.1 M elements where the
// step-per-node plan needed 3.2256 M.
func TestSkyNetCArenaWithoutBundleInteriors(t *testing.T) {
	g := backbone.SkyNetC(rand.New(rand.NewSource(1)), backbone.DefaultConfig())
	steps, perSample := nn.Compile(g, []int{1, 3, 160, 320}, nil).Steps()
	if perSample > 2_100_000 {
		t.Errorf("SkyNet C at 160×320 needs an arena of %d elements per sample, want at most 2.1 M", perSample)
	}
	readers := make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, j := range n.Inputs {
			if j != nn.GraphInput {
				readers[j]++
			}
		}
	}
	interior := make([]bool, len(g.Nodes))
	for i, n := range g.Nodes {
		switch n.Layer.(type) {
		case *nn.DWConv3:
			interior[i] = true
		case *nn.MaxPool:
			interior[n.Inputs[0]] = readers[n.Inputs[0]] == 1
		}
	}
	bands := 0
	for _, s := range steps {
		if interior[s.Out] {
			t.Errorf("step at node %d materialises node %d (%s), the inside of a Bundle", s.Node, s.Out, g.Nodes[s.Out].Layer.Name())
		}
		if s.Band != nil {
			bands++
		}
	}
	if bands != 6 {
		t.Errorf("%d Bundle steps, want SkyNet C's six", bands)
	}
}
