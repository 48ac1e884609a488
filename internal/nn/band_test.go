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

// genBypass draws the bypass of Figure 4 around genBundle's kind of Bundle: a
// chain end read by a pool and by a reorder of the same window (2 or 3), a
// second Bundle on the pooled map, and a Concat of that Bundle's output, the
// reordered map and sometimes a third map — a 1×1 convolution of the pooled
// one — in any order, read by a last Bundle. Channel counts are odd as often
// as not, the maps 1..3 pool windows high and wide, in bands of 1..2, batches
// 1..5.
func genBypass(rng *rand.Rand) bundleCase {
	inC, c1, c2 := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
	k := 2 + rng.Intn(2)
	rows := k * (1 + rng.Intn(2))
	oh, ow := k*(1+rng.Intn(3)), k*(1+rng.Intn(3))
	n := 1 + rng.Intn(5)
	name := fmt.Sprintf("bypass/%d->%d->%d/%dx%dx%d/pool%d/rows%d", inC, c1, c2, n, oh, ow, k, rows)

	g := nn.NewGraph()
	// bundle appends DW → PW [→ BN] [→ ReLU6] on node from and returns its end.
	bundle := func(from, in, out int) int {
		g.Add(nn.NewDWConv3(rng, in, 3, rng.Intn(2) == 0), from)
		end := g.Add(nn.NewPWConv1(rng, in, out, rng.Intn(2) == 0))
		if rng.Intn(2) == 0 {
			end = g.Add(nn.NewBatchNorm(out))
		}
		if rng.Intn(2) == 0 {
			end = g.Add(nn.NewReLU6())
		}
		return end
	}
	src := bundle(nn.GraphInput, inC, c1)
	var pool, reorg int
	if rng.Intn(2) == 0 {
		pool, reorg = g.Add(nn.NewMaxPool(k), src), g.Add(nn.NewReorg(k), src)
	} else {
		reorg, pool = g.Add(nn.NewReorg(k), src), g.Add(nn.NewMaxPool(k), src)
	}
	inputs, chans := []int{bundle(pool, c1, c2), reorg}, c2+c1*k*k
	if rng.Intn(2) == 0 {
		c3 := 1 + rng.Intn(5)
		inputs, chans = append(inputs, g.Add(nn.NewPWConv1(rng, c1, c3, true), pool)), chans+c3
		name += "/3"
	}
	rng.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
	bundle(g.Add(nn.NewConcat(), inputs...), chans, 1+rng.Intn(5))
	unsettle(g, rng)
	return bundleCase{name: name, g: g, x: randBatch(rng, n, inC, oh, ow), pool: true, bytes: 4 * ow * (inC + c1) * rows}
}

// withKernels runs fn under the pure-Go micro-kernel and each assembly one
// the host has, and restores the kernel in use.
func withKernels(t testing.TB, fn func(kernel string)) {
	t.Helper()
	old := tensor.KernelName()
	defer func() {
		if err := tensor.SetKernel(old); err != nil {
			t.Fatalf("restoring kernel %q: %v", old, err)
		}
	}()
	for _, name := range []string{"purego", "avx2", "avx512"} {
		if tensor.SetKernel(name) != nil {
			continue // not on this CPU or build
		}
		fn(name)
	}
}

// requirePlanIsWalk holds the plan of g under mask to the layer walk on x,
// bit for bit, compiled, with one worker, two and three, under each
// micro-kernel, which must also agree with each other. Released arena slots
// are poisoned throughout.
func requirePlanIsWalk(t *testing.T, name string, g *nn.Graph, x *tensor.Tensor, mask []bool) {
	t.Helper()
	nn.PoisonReleased(t)
	var first *tensor.Tensor
	withKernels(t, func(kernel string) {
		what := name + " kernel=" + kernel
		want := g.Walk(x, nil)
		if first == nil {
			first = want
		}
		requireSameBits(t, what+": the walk against the first kernel's", want, first)
		for _, workers := range []int{1, 2, 3} {
			parallelism(workers, func() {
				got := nn.Compile(g, x.Shape(), mask).Run(x, nil)
				requireSameBits(t, fmt.Sprintf("%s, %d workers", what, workers), got, want)
			})
		}
	})
}

// planShape is what the tests below ask of a compiled plan: its Bundle steps
// and which of them fold a pool and a reorder, and how many Concat and Reorg
// nodes are still steps of their own — computed, not laid out.
type planShape struct{ bands, pools, reorgs, concatSteps, reorgSteps int }

func shapeOfPlan(g *nn.Graph, shape []int, mask []bool) (ps planShape) {
	steps, _ := nn.Compile(g, shape, mask).Steps()
	for _, s := range steps {
		switch g.Nodes[s.Node].Layer.(type) {
		case *nn.Concat:
			if !s.Laid {
				ps.concatSteps++
			}
		case *nn.Reorg:
			ps.reorgSteps++
		}
		if b := s.Band; b != nil {
			ps.bands++
			if b.Pool >= 0 {
				ps.pools++
			}
			if b.Reorg >= 0 {
				ps.reorgs++
			}
		}
	}
	return ps
}

// TestBundleStepMatchesLayerWalk is the band step's contract over generated
// Bundles and bypasses: layer walk ≡ compiled plan ≡ hooked, unfused plan, bit
// for bit. A lone Bundle compiles to one step, its pool folded in; a bypass to
// three Bundle steps, the first with pool and reorder folded in, and no
// Concat or Reorg step at all.
func TestBundleStepMatchesLayerWalk(t *testing.T) {
	cases := 150
	if testing.Short() {
		cases = 40
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < cases; i++ {
		c, want := genBundle(rng), planShape{bands: 1}
		if i%3 == 2 {
			c, want = genBypass(rng), planShape{bands: 3, pools: 1, reorgs: 1}
		} else if c.pool {
			want.pools = 1
		}
		nn.SetBandBudget(t, c.bytes)
		got := shapeOfPlan(c.g, c.x.Shape(), nil)
		if i%3 != 2 {
			got.reorgSteps = 0 // genBundle's Reorg(1)
		}
		if got != want {
			t.Fatalf("%s: compiled to %+v, want %+v", c.name, got, want)
		}
		requirePlanIsWalk(t, c.name, c.g, c.x, nil)
	}
}

// TestBundleStepLeavesAlone builds the neighbourhoods a Bundle step must not
// swallow and a Concat must not be laid over — every intermediate map
// somebody else reads, every marked node, every Concat input that is not a
// sole-consumer edge from a slot of its own — and checks both that the plan
// keeps them apart and that it is still the layer walk.
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
	// bypass appends the Bundle, its pool, a Reorg(s) of the chain end and
	// their Concat, and a reader of that.
	bypass := func(g *nn.Graph, s int) (act, pool, reorg, cat int) {
		_, _, _, act = bundle(g)
		pool, reorg = g.Add(nn.NewMaxPool(2), act), g.Add(nn.NewReorg(s), act)
		if s != 2 {
			pool = g.Add(nn.NewMaxPool(s/2), pool) // down to the reordered map's size
		}
		cat = g.Add(nn.NewConcat(), pool, reorg)
		g.Add(nn.NewReLU(), cat)
		return act, pool, reorg, cat
	}
	mark := func(g *nn.Graph, i int) []bool {
		mask := make([]bool, len(g.Nodes))
		mask[i] = true
		return mask
	}
	for _, c := range []struct {
		name  string
		build func(g *nn.Graph) (mask []bool)
		want  planShape
	}{
		{"the depth-wise map has two consumers", func(g *nn.Graph) []bool {
			dw, _, _, act := bundle(g)
			g.Add(nn.NewReLU(), g.Add(nn.NewConcat(), act, g.Add(nn.NewReLU(), dw)))
			return nil
		}, planShape{}},
		{"the bypass source, for contrast: everything folds", func(g *nn.Graph) []bool { // SkyNet C's Bundle 3
			bypass(g, 2)
			return nil
		}, planShape{bands: 1, pools: 1, reorgs: 1}},
		{"the pool is the graph output", func(g *nn.Graph) []bool {
			bundle(g)
			g.Add(nn.NewMaxPool(2))
			return nil
		}, planShape{bands: 1}},
		{"a 3×3 convolution follows the depth-wise one", func(g *nn.Graph) []bool {
			g.Add(nn.NewDWConv3(rng, 6, 3, false), nn.GraphInput)
			g.Add(nn.NewConv2D(rng, 6, 10, 3, 1, 1, true))
			g.Add(nn.NewMaxPool(2))
			g.Add(nn.NewReLU())
			return nil
		}, planShape{}},
		{"the depth-wise node is marked", func(g *nn.Graph) []bool {
			dw, _, _, _ := bundle(g)
			g.Add(nn.NewMaxPool(2))
			g.Add(nn.NewReLU())
			return mark(g, dw)
		}, planShape{}},
		{"the convolution is marked", func(g *nn.Graph) []bool {
			_, pw, _, _ := bundle(g)
			g.Add(nn.NewMaxPool(2))
			g.Add(nn.NewReLU())
			return mark(g, pw)
		}, planShape{}},
		{"the pool is marked", func(g *nn.Graph) []bool {
			bundle(g)
			pool := g.Add(nn.NewMaxPool(2))
			g.Add(nn.NewReLU())
			return mark(g, pool)
		}, planShape{bands: 1}},
		{"the bypass's pool is marked", func(g *nn.Graph) []bool {
			_, pool, _, _ := bypass(g, 2)
			return mark(g, pool)
		}, planShape{bands: 1, reorgSteps: 1, concatSteps: 1}},
		{"the bypass's reorder is marked", func(g *nn.Graph) []bool {
			_, _, reorg, _ := bypass(g, 2)
			return mark(g, reorg)
		}, planShape{bands: 1, reorgSteps: 1, concatSteps: 1}},
		{"the reorder's block is not the pool's window", func(g *nn.Graph) []bool {
			bypass(g, 4)
			return nil
		}, planShape{bands: 1, reorgSteps: 1}},
		{"a reorder source without a pool", func(g *nn.Graph) []bool {
			_, _, _, act := bundle(g)
			g.Add(nn.NewReLU(), g.Add(nn.NewConcat(), g.Add(nn.NewReorg(2), act), g.Add(nn.NewReorg(2), act)))
			return nil
		}, planShape{bands: 1, reorgSteps: 2}},
		{"a third reader of the chain end", func(g *nn.Graph) []bool {
			act, _, _, _ := bypass(g, 2)
			g.Add(nn.NewReLU(), act)
			return nil
		}, planShape{bands: 1, reorgSteps: 1}},
		{"a concat input has a second reader", func(g *nn.Graph) []bool {
			_, pool, _, cat := bypass(g, 2)
			g.Add(nn.NewConcat(), cat, pool)
			return nil
		}, planShape{bands: 1, pools: 1, reorgs: 1, concatSteps: 2}},
		{"the graph input is a concat input", func(g *nn.Graph) []bool {
			g.Add(nn.NewReLU(), g.Add(nn.NewConcat(), g.Add(nn.NewReLU(), nn.GraphInput), nn.GraphInput))
			return nil
		}, planShape{concatSteps: 1}},
		{"the same node twice", func(g *nn.Graph) []bool {
			act := g.Add(nn.NewReLU(), nn.GraphInput)
			g.Add(nn.NewReLU(), g.Add(nn.NewConcat(), act, act))
			return nil
		}, planShape{concatSteps: 1}},
		{"the concat is the graph output", func(g *nn.Graph) []bool {
			_, _, _, cat := bypass(g, 2)
			g.Output = cat
			return nil
		}, planShape{bands: 1, pools: 1, reorgs: 1, concatSteps: 1}},
		{"a concat input is the graph output", func(g *nn.Graph) []bool {
			_, _, reorg, _ := bypass(g, 2)
			g.Output = reorg
			return nil
		}, planShape{bands: 1, reorgSteps: 1, concatSteps: 1}},
		{"the concat is marked", func(g *nn.Graph) []bool {
			_, _, _, cat := bypass(g, 2)
			return mark(g, cat)
		}, planShape{bands: 1, pools: 1, reorgs: 1, concatSteps: 1}},
		{"a concat input is marked", func(g *nn.Graph) []bool {
			a := g.Add(nn.NewReLU(), nn.GraphInput)
			g.Add(nn.NewReLU(), g.Add(nn.NewConcat(), a, g.Add(nn.NewReLU6(), nn.GraphInput)))
			return mark(g, a)
		}, planShape{concatSteps: 1}},
		{"a concat of a concat: the inner one is laid out, the outer one copies", func(g *nn.Graph) []bool {
			a, b := g.Add(nn.NewReLU(), nn.GraphInput), g.Add(nn.NewReLU6(), nn.GraphInput)
			g.Add(nn.NewReLU(), g.Add(nn.NewConcat(), g.Add(nn.NewConcat(), a, b), g.Add(nn.NewReLU(), nn.GraphInput)))
			return nil
		}, planShape{concatSteps: 1}},
	} {
		g := nn.NewGraph()
		mask := c.build(g)
		unsettle(g, rng)
		x := randBatch(rng, 3, 6, 8, 8)
		if got := shapeOfPlan(g, x.Shape(), mask); got != c.want {
			t.Errorf("%s: compiled to %+v, want %+v", c.name, got, c.want)
		}
		requirePlanIsWalk(t, c.name, g, x, mask)
	}
}

// TestBundleStepBandBuffers: a worker's band buffer is one slice of at most
// bandBudget bytes, and in it every Bundle step's depth-wise rows and product
// lie side by side, never over each other — for SkyNet A, B and C at the
// deployed 160×320 and at TestBatchInvariance's widths and frame sizes, where
// the forward on two workers, released slots poisoned, is the layer walk's
// bits.
func TestBundleStepBandBuffers(t *testing.T) {
	nn.PoisonReleased(t)
	type size struct {
		width float64
		h, w  int
	}
	sizes := []size{{1, 160, 320}, {0.125, 9, 19}, {0.25, 17, 11}, {0.5, 11, 25}}
	for vi, v := range []backbone.SkyNetVariant{backbone.VariantA, backbone.VariantB, backbone.VariantC} {
		for _, s := range sizes {
			name := fmt.Sprintf("SkyNet%s/width%v/%dx%d", v, s.width, s.h, s.w)
			rng := rand.New(rand.NewSource(int64(50 + vi)))
			g := backbone.SkyNet(rng, backbone.Config{Width: s.width, InC: 3, HeadChannels: 10, ReLU6: true}, v)
			unsettle(g, rng)
			x := randBatch(rng, 1, 3, s.h, s.w)
			p := nn.Compile(g, x.Shape(), nil)
			parallelism(2, func() { requireSameBits(t, name, p.Run(x, nil), g.Walk(x, nil)) })
			bufs := nn.BandBuffers(g)
			if len(bufs) != 2 {
				t.Fatalf("%s: %d band buffers after a forward on two workers, want 2", name, len(bufs))
			}
			for i, buf := range bufs {
				if 4*len(buf) > nn.BandBudget() {
					t.Errorf("%s: worker %d's band buffer is %d bytes, over the %d-byte budget", name, i, 4*len(buf), nn.BandBudget())
				}
			}
			dw, pw := nn.BandSpans(p)
			if len(dw) == 0 {
				t.Fatalf("%s: no Bundle step", name)
			}
			for k := range dw {
				d, w := dw[k], pw[k]
				if d[0] >= d[1] || d[1] > len(bufs[0]) || w[1] > len(bufs[0]) {
					t.Errorf("%s: Bundle %d's depth-wise rows %v and product %v do not fit a buffer of %d", name, k+1, d, w, len(bufs[0]))
				}
				if w[0] < w[1] && d[0] < w[1] && w[0] < d[1] {
					t.Errorf("%s: Bundle %d's depth-wise rows %v and product %v overlap", name, k+1, d, w)
				}
			}
		}
	}
}

// TestSkyNetCArenaWithoutBundleInteriors pins what the Bundle step and the
// laid-out Concat are for: at the deployed size no depth-wise map and no map
// only a pool — or, at the bypass source, a pool and the reorder — reads gets
// an arena slot, the reordered map is gathered straight into its channels of
// the Concat's slot, which Bundle 5 fills beside it, and a sample's arena is
// 1.3312 M elements — the Concat's 1.024 M plus Bundle 4's map — where the
// step-per-node plan needed 3.2256 M and the Bundle steps alone 2.0992 M.
func TestSkyNetCArenaWithoutBundleInteriors(t *testing.T) {
	g := backbone.SkyNetC(rand.New(rand.NewSource(1)), backbone.DefaultConfig())
	p := nn.Compile(g, []int{1, 3, 160, 320}, nil)
	steps, perSample := p.Steps()
	if perSample > 1_331_200 {
		t.Errorf("SkyNet C at 160×320 needs an arena of %d elements per sample, want at most 1 331 200", perSample)
	}
	interior := make([]bool, len(g.Nodes))
	for i, n := range g.Nodes {
		switch n.Layer.(type) {
		case *nn.DWConv3:
			interior[i] = true
		case *nn.MaxPool:
			interior[n.Inputs[0]] = true // Bundle 3's too: its other reader is the reorder
		}
	}
	var cat, reorg *nn.Step
	bands := 0
	for i, s := range steps {
		switch g.Nodes[s.Node].Layer.(type) {
		case *nn.Concat, *nn.Reorg:
			if !s.Laid {
				t.Errorf("node %d (%s) is a step of its own", s.Node, g.Nodes[s.Node].Layer.Name())
			}
		}
		if interior[s.Out] {
			t.Errorf("step at node %d materialises node %d (%s), the inside of a Bundle", s.Node, s.Out, g.Nodes[s.Out].Layer.Name())
		}
		if s.Band != nil {
			bands++
			if s.Band.Reorg >= 0 {
				reorg = &steps[i]
			}
		}
		if in := s.Inputs[0]; in != nn.GraphInput {
			if _, ok := g.Nodes[in].Layer.(*nn.Concat); ok {
				cat = &steps[i]
			}
		}
	}
	if bands != 6 {
		t.Errorf("%d Bundle steps, want SkyNet C's six", bands)
	}
	if reorg == nil || cat == nil {
		t.Fatalf("no Bundle step folds a Reorg (%v) or none reads the Concat (%v)", reorg == nil, cat == nil)
	}
	// The step reading the Concat frees its two inputs, which are its slot.
	if len(cat.Frees) != 2 || cat.Frees[1] != reorg.Band.Reorg {
		t.Fatalf("the Concat's reader frees %v, want Bundle 5's map and the reordered one (node %d)", cat.Frees, reorg.Band.Reorg)
	}
	reordered := p.Slot(reorg.Band.Reorg)
	for i, s := range steps {
		if s.Out == cat.Frees[0] && s.Off+s.Size != reordered.Off {
			t.Errorf("Bundle 5's map ends at %d, the reordered map begins at %d: not one slot in channel order", s.Off+s.Size, reordered.Off)
		}
		// Bundle 5's step writes the later of the two, so the laid-out Concat
		// over both comes right after it, and it is the only one.
		var laid []nn.Step
		for _, next := range steps[i+1:] {
			if !next.Laid {
				break
			}
			laid = append(laid, next)
		}
		if s.Laid {
			if i == 0 || steps[i-1].Out != cat.Frees[0] {
				t.Errorf("the laid-out Concat %d follows step %d, want Bundle 5's", s.Node, i-1)
			}
		} else if s.Out == cat.Frees[0] && (len(laid) != 1 || laid[0].Node != cat.Inputs[0] || laid[0].Off != s.Off || laid[0].Size != s.Size+reordered.Size) {
			t.Errorf("Bundle 5's step completes %+v, want the Concat over its slot and the reordered map's", laid)
		}
	}
}
