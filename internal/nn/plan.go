package nn

import (
	"fmt"
	"math"
	"slices"

	"skynet/internal/tensor"
)

// This file is the inference side of Graph.Forward: a plan compiled once per
// (node list, Output, input sample shape) and an executor that runs it. It is
// the int8 engine's planner too: internal/quant compiles the same plan under
// a mask of nodes that stay units of their own, calibrates by running it in
// float under an observer (Run), and executes its Steps with integer
// arithmetic on a []int8 arena at the same offsets.
//
// The plan holds structure only — shapes, which BatchNorm and ReLU nodes
// fold into which convolution's GEMM store, and where in the graph's arena
// each feature map lives. Every parameter (weights, biases, batch-norm
// statistics, an activation's Cap) is read from the layers on each forward,
// nothing is folded or copied, so an optimizer step, pruning or a Load
// between two forwards cannot make a plan stale. Layer hyper-parameters that
// decide shapes (a conv's K, Stride, Pad, channel counts; a pool's K) are
// structure: changing one on a live layer needs a new graph.
//
// Each op has one implementation that writes into a destination slice
// (Conv2D.forwardImage, DWConv3.planes, BatchNorm.evalInto, reluInto,
// maxPoolInto, ReorgInto, addInto, concatInto); a layer's Forward and the executor
// both call it, and the fused GEMM tail calls the same two scalar functions
// (tensor.BNEval, tensor.ReLUClamp) the stand-alone passes call. The
// executor therefore performs, per element, the float operations of the
// layer walk in the same order: its outputs are bitwise those of the walk.
//
// A batch is run as lanes: a forward of n samples is n walks of one sample
// through the steps, dealt in contiguous chunks to as many lanes as there are
// workers (lanes.go), each lane on its own one-sample region of the arena.
// It is what the paper batches for — one set of feature-map buffers serving
// several frames (§6.2, Figure 9) — in the form a CPU has it: the arena is
// bounded by the core count, not by the batch, a sample's maps stay in one
// core's cache from step to step, and the cores meet once per forward, not
// once per layer.

// ConvChain is the tail that may fuse into one Conv2D node's GEMM:
// conv → [BatchNorm] → [ReLU], following sole-consumer edges only, so no
// other node ever needs the intermediate values.
type ConvChain struct {
	BN  *BatchNorm // nil when the conv's sole consumer is not a batch norm
	Act *ReLU      // nil when the chain does not end in a rectifier
	// Tail lists the node indices of BN and Act, in chain order.
	Tail []int
}

// Last returns the node whose output the chain headed by conv node i
// produces: the last of Tail, or i itself when nothing fuses.
//
//skynet:hotpath
func (c ConvChain) Last(i int) int {
	if n := len(c.Tail); n > 0 {
		return c.Tail[n-1]
	}
	return i
}

// ConvChains returns, indexed by node, the chain of every Conv2D node of g
// (the zero ConvChain for other nodes). The graph output counts as a
// consumer of its node. separate, when non-nil, marks nodes that must stay
// units of their own: a marked conv gets no chain and a marked BatchNorm or
// ReLU ends the chain before it.
func ConvChains(g *Graph, separate []bool) []ConvChain {
	next := soleConsumers(g, separate)
	chains := make([]ConvChain, len(g.Nodes))
	for i, n := range g.Nodes {
		if _, ok := n.Layer.(*Conv2D); !ok || separate != nil && separate[i] {
			continue
		}
		ch := &chains[i]
		j := next(i)
		if j >= 0 {
			if bn, ok := g.Nodes[j].Layer.(*BatchNorm); ok {
				ch.BN, ch.Tail = bn, append(ch.Tail, j)
				j = next(j)
			}
		}
		if j >= 0 {
			if act, ok := g.Nodes[j].Layer.(*ReLU); ok {
				ch.Act, ch.Tail = act, append(ch.Tail, j)
			}
		}
	}
	return chains
}

// soleConsumers returns next, the one rule of fusion: next(i) is the node
// that may fuse onto node i — its only consumer, the graph output counting
// as one, and not marked in separate — or -1.
func soleConsumers(g *Graph, separate []bool) (next func(i int) int) {
	fanout := make([]int, len(g.Nodes))
	consumer := make([]int, len(g.Nodes)) // sole consumer when fanout == 1
	for i := range consumer {
		consumer[i] = -1
	}
	for i, n := range g.Nodes {
		for _, j := range n.Inputs {
			if j != GraphInput {
				fanout[j]++
				consumer[j] = i
			}
		}
	}
	fanout[g.output()]++
	return func(i int) int {
		if j := consumer[i]; fanout[i] == 1 && j >= 0 && (separate == nil || !separate[j]) {
			return j
		}
		return -1
	}
}

// planNode is one graph node as the plan sees it. Nothing here changes while
// a forward's lanes run.
type planNode struct {
	layer  Layer
	inputs []int
	dims   []int // the node's output shape for one sample: dims[0] is 1
	size   int   // output elements per sample

	chain ConvChain // Conv2D: what its GEMM store applies when fusing
	inv   []float32 // Conv2D with a chain BN: per-channel 1/sqrt(var+eps), refilled as every forward begins
	band  *band     // DWConv3 heading a Bundle step (band.go); nil for the others
	fused bool      // computed inside an earlier node's step: a chain's tail, a Bundle step's conv and pool
	chans []int     // Concat: channels of each input
	// unlowered marks a layer of a kind the executor does not lower: the
	// graph's inference forward is the layer walk then (Run).
	unlowered bool

	// off is the offset, within a lane's region of the arena, of the slot this
	// node's output is written to; -1 when it has none (fused into a later
	// node's slot, the graph output, an unlowered layer's own tensor).
	off int
	// frees lists the nodes whose slots nothing reads after this step.
	frees []int
}

// Plan is a compiled inference schedule of one graph at one input sample
// shape. Arena rule: a slot is written by exactly one step and may be
// handed to a later step's output only once every reader of it has run
// (frees); a step's output slot is taken before its inputs are released, so
// an op never reads and writes the same memory.
type Plan struct {
	g      *Graph
	nodes  []planNode
	output int
	in     []int   // input shape of one sample: in[0] is 1
	shapes [][]int // the nodes' output shapes at the batch of the last forward, as Graph.OutShapes
	// perSample is the arena a sample's walk needs, in elements: a lane's
	// region, whatever the batch.
	perSample int
	// unlowered says some node's is: Run walks the layers, and the plan serves
	// for its shapes and, to another engine, for its steps.
	unlowered bool
	maxInputs int // the most inputs any node has
	// bandDW and bandPW are the lengths of the band buffers the plan's largest
	// Bundle step needs of each worker; zero without one.
	bandDW, bandPW int
}

// maxPlans bounds the plans a graph keeps, one per input sample shape (a
// tracker's backbone alternates between two crop sizes); the least recently
// used is dropped.
const maxPlans = 4

// poisonReleased makes the executor overwrite every arena slot with NaN as
// soon as the plan says nothing reads it any more. Tests set it: a slot
// handed out while still live then shows in the output.
var poisonReleased bool

// planFor returns the plan for g at x's sample shape, compiling on a miss.
func (g *Graph) planFor(x *tensor.Tensor) *Plan {
	if len(g.plans) > 0 && !g.plans[0].describes(g) {
		g.plans = nil
	}
	for i, p := range g.plans {
		if slices.Equal(p.in[1:], x.Shape()[1:]) {
			copy(g.plans[1:i+1], g.plans[:i])
			g.plans[0] = p
			return p
		}
	}
	p := Compile(g, x.Shape(), nil)
	g.plans = append([]*Plan{p}, g.plans[:min(len(g.plans), maxPlans-1)]...)
	return p
}

// describes reports whether p was compiled from g's current node list.
func (p *Plan) describes(g *Graph) bool {
	if len(p.nodes) != len(g.Nodes) || p.output != g.output() {
		return false
	}
	for i, n := range g.Nodes {
		if p.nodes[i].layer != n.Layer || !slices.Equal(p.nodes[i].inputs, n.Inputs) {
			return false
		}
	}
	return true
}

// Compile infers every node's shape from the input shape in (in[0] is
// ignored), decides fusion — separate is ConvChains' mask, and a marked
// DWConv3 or MaxPool likewise joins no Bundle step — and lays the feature
// maps out in the arena. Graph.Forward compiles with a nil mask and keeps
// the plan; another caller's plan is valid while g's node list is.
func Compile(g *Graph, in []int, separate []bool) *Plan {
	p := &Plan{g: g, nodes: make([]planNode, len(g.Nodes)), output: g.output(),
		in: slices.Clone(in), shapes: make([][]int, len(g.Nodes))}
	p.in[0] = 1
	chains := ConvChains(g, separate)
	for i, n := range g.Nodes {
		pn := &p.nodes[i]
		pn.layer, pn.inputs, pn.off = n.Layer, slices.Clone(n.Inputs), -1
		p.maxInputs = max(p.maxInputs, len(n.Inputs))
		shapes := make([][]int, len(n.Inputs))
		for k, j := range n.Inputs {
			shapes[k] = p.shapeOf(j)
		}
		switch l := n.Layer.(type) {
		case *Conv2D:
			expect4D(shapes[0], l.InC, l.label)
			outH, outW := l.outSize(shapes[0][2], shapes[0][3])
			pn.dims = []int{1, l.OutC, outH, outW}
			pn.chain = chains[i]
			if pn.chain.BN != nil {
				pn.inv = make([]float32, l.OutC)
			}
			for _, j := range pn.chain.Tail {
				p.nodes[j].fused = true
			}
		case *DWConv3:
			expect4D(shapes[0], l.C, "dwconv3")
			outH, outW := l.outSize(shapes[0][2], shapes[0][3])
			pn.dims = []int{1, l.C, outH, outW}
		case *BatchNorm:
			expect4D(shapes[0], l.C, "batchnorm")
			pn.dims = slices.Clone(shapes[0])
		case *ReLU:
			pn.dims = slices.Clone(shapes[0])
		case *MaxPool:
			expect4D(shapes[0], 0, "maxpool")
			pn.dims = []int{1, shapes[0][1], shapes[0][2] / l.K, shapes[0][3] / l.K}
		case *Reorg:
			pn.dims = l.outShape(shapes[0])
		case *Add:
			if len(shapes) != 2 || !slices.Equal(shapes[0], shapes[1]) {
				panic(fmt.Sprintf("nn: add (node %d) of shapes %v", i, shapes))
			}
			pn.dims = slices.Clone(shapes[0])
		case *Concat:
			pn.dims = concatShape(shapes)
			for _, s := range shapes {
				pn.chans = append(pn.chans, s[1])
			}
		default:
			// A kind the executor does not lower: one call of its own Forward
			// on a zero sample tells its output shape.
			probe := make([]*tensor.Tensor, len(shapes))
			for k, s := range shapes {
				probe[k] = tensor.New(s...)
			}
			pn.dims = slices.Clone(l.Forward(probe, false).Shape())
			pn.unlowered, p.unlowered = true, true
		}
		pn.size = 1
		for _, d := range pn.dims[1:] {
			pn.size *= d
		}
		if pn.size <= 0 {
			panic(fmt.Sprintf("nn: layer %s (node %d) has empty output shape %v for input %v", n.Layer.Name(), i, pn.dims, shapes))
		}
		p.shapes[i] = slices.Clone(pn.dims)
	}
	p.findBands(separate)
	p.layout()
	return p
}

// findBands turns every DWConv3 → 1×1 Conv2D over a sole-consumer edge into
// one Bundle step headed by the depth-wise node, and folds in the MaxPool
// that alone consumes the convolution's chain unless its output is the
// graph's. Like a chain, it follows soleConsumers' edges under the mask.
func (p *Plan) findBands(separate []bool) {
	next := soleConsumers(p.g, separate)
	for i := range p.nodes {
		dw, ok := p.nodes[i].layer.(*DWConv3)
		if !ok || separate != nil && separate[i] {
			continue
		}
		conv := next(i)
		if conv < 0 {
			continue
		}
		pw, ok := p.nodes[conv].layer.(*Conv2D)
		if !ok || !pw.direct() {
			continue
		}
		b := &band{dw: dw, pw: pw, conv: conv, pool: -1, out: p.nodes[conv].chain.Last(conv), k: 1}
		if j := next(b.out); j >= 0 && j != p.output {
			if mp, ok := p.nodes[j].layer.(*MaxPool); ok {
				b.pool, b.out, b.k = j, j, mp.K
				p.nodes[j].fused = true
			}
		}
		p.nodes[conv].fused = true
		p.nodes[i].band = b
		dwLen, pwLen := b.fit(p.nodes[i].dims[2], p.nodes[i].dims[3])
		p.bandDW, p.bandPW = max(p.bandDW, dwLen), max(p.bandPW, pwLen)
	}
}

// shapeOf returns the shape of one sample of node j's output (of the graph
// input for GraphInput).
//
//skynet:hotpath
func (p *Plan) shapeOf(j int) []int {
	if j == GraphInput {
		return p.in
	}
	return p.nodes[j].dims
}

// slot returns the node whose output step i writes: a Bundle step's pool or
// chain end, the end of its chain for a fusing conv, i itself otherwise.
//
//skynet:hotpath
func (p *Plan) slot(i int) int {
	if b := p.nodes[i].band; b != nil {
		return b.out
	}
	return p.nodes[i].chain.Last(i)
}

// layout assigns arena offsets by liveness: walking the steps in order, a
// step's output takes the first free span that fits (or extends the arena),
// and the slots whose last reader is that step are then returned.
func (p *Plan) layout() {
	lastUse := make([]int, len(p.nodes))
	for i := range p.nodes {
		if p.nodes[i].fused {
			continue
		}
		lastUse[p.slot(i)] = i // an output nobody reads dies with its step
		for _, j := range p.nodes[i].inputs {
			if j != GraphInput {
				lastUse[j] = i
			}
		}
	}
	var free []span // sorted by offset, no two adjacent
	for i := range p.nodes {
		pn := &p.nodes[i]
		if pn.fused {
			continue
		}
		if o := &p.nodes[p.slot(i)]; !o.unlowered && p.slot(i) != p.output {
			o.off, free = takeSpan(free, o.size, &p.perSample)
		}
		for s := range p.nodes {
			if o := &p.nodes[s]; o.off >= 0 && lastUse[s] == i {
				pn.frees = append(pn.frees, s)
				free = returnSpan(free, span{o.off, o.size})
			}
		}
	}
}

type span struct{ off, size int }

// takeSpan carves size elements out of the first free span that fits; when
// none does it extends the arena end, starting inside a trailing free span.
func takeSpan(free []span, size int, end *int) (int, []span) {
	for i, s := range free {
		switch {
		case s.size == size:
			return s.off, slices.Delete(free, i, i+1)
		case s.size > size:
			free[i] = span{s.off + size, s.size - size}
			return s.off, free
		}
	}
	off := *end
	if k := len(free) - 1; k >= 0 && free[k].off+free[k].size == off {
		off, free = free[k].off, free[:k]
	}
	*end = off + size
	return off, free
}

// returnSpan inserts s into the sorted free list, merging it with the spans
// it touches.
func returnSpan(free []span, s span) []span {
	i, _ := slices.BinarySearchFunc(free, s.off, func(f span, off int) int { return f.off - off })
	if i < len(free) && s.off+s.size == free[i].off {
		free[i] = span{s.off, s.size + free[i].size}
	} else {
		free = slices.Insert(free, i, s)
	}
	if i > 0 && free[i-1].off+free[i-1].size == free[i].off {
		free[i-1].size += free[i].size
		free = slices.Delete(free, i, i+1)
	}
	return free
}

// Step is one executed step of a plan as another engine reads it: the node
// whose layer runs and where the one output it materialises lies.
type Step struct {
	Node   int       // the node the step runs
	Out    int       // the node whose output it writes: Chain.Last(Node), or a Bundle step's last node
	Inputs []int     // Node's inputs (GraphInput for the graph's)
	Chain  ConvChain // what fuses into a Conv2D step, or into a Bundle step's convolution
	Band   *Band     // what a DWConv3 step runs beyond Node when it is a Bundle step; nil otherwise
	Dims   []int     // Out's shape for one sample; Dims[0] is 1
	Size   int       // Out's elements per sample
	// Off is where Out's slot lies in an arena of one sample, [Off, Off+Size),
	// or -1 without one (the graph output, kinds not lowered).
	Off   int
	Frees []int // the nodes whose slots nothing reads after this step
}

// Band is the rest of a Bundle step, whose Node is a DWConv3: the step
// computes Node, then the 1×1 convolution Conv with the step's Chain fused,
// then the max-pool Pool, band by band, and materialises only the last of
// them.
type Band struct {
	Conv int // the 1×1 Conv2D node that alone consumes Node
	Pool int // the MaxPool node that alone consumes the chain, or -1
}

// Steps returns the plan's steps in execution order and the arena one
// sample's walk through them needs, in elements. The slices belong to the
// plan.
func (p *Plan) Steps() (steps []Step, perSample int) {
	for i := range p.nodes {
		if pn := &p.nodes[i]; !pn.fused {
			o := &p.nodes[p.slot(i)]
			st := Step{Node: i, Out: p.slot(i), Inputs: pn.inputs, Chain: pn.chain,
				Dims: o.dims, Size: o.size, Off: o.off, Frees: pn.frees}
			if b := pn.band; b != nil {
				st.Chain, st.Band = p.nodes[b.conv].chain, &Band{Conv: b.conv, Pool: b.pool}
			}
			steps = append(steps, st)
		}
	}
	return steps, p.perSample
}

// lane is one worker's share of an inference forward: it walks its samples,
// one after the other, through the plan's steps on a region of the arena one
// sample large. What differs between two samples in flight — where each
// node's output lies, the argument list of the step being run — is here, so
// that lanes running side by side only read the plan and the layers.
type lane struct {
	arena []float32   // the lane's region of g.arena
	bufs  [][]float32 // by node: its output for the sample in flight
	srcs  [][]float32 // a Concat step's argument list
}

// planRun is the inference forward in flight on a graph: what RunLanes walks.
type planRun struct {
	p      *Plan
	lanes  []*lane       // lanes[i] also owns bands[i] and every Conv2D's im2col scratch i
	bands  []bandScratch // per worker: a lane's own, or all of them a lone lane's
	x, out []float32     // the input batch and the output batch, n samples each
	n      int
	// observe is Run's.
	observe func(node int, data []float32)
}

// prepare readies the graph for lanes of p: the arena, one region per lane,
// the lanes themselves, and the band buffers of every worker. All only grow —
// the arena to the most lanes and the largest plan seen, never with the
// batch — so a caller that varies its batch size settles at once.
func (p *Plan) prepare(lanes int) {
	g := p.g
	if need := p.perSample * lanes; len(g.arena) < need {
		// Dropped first: the collection this allocation may start would
		// otherwise mark old and new both live and pace itself on the sum.
		g.arena = nil
		g.arena = make([]float32, need)
	}
	for len(g.lanes) < lanes {
		g.lanes = append(g.lanes, &lane{})
	}
	for i, l := range g.lanes[:lanes] {
		l.arena = g.arena[i*p.perSample : (i+1)*p.perSample]
		if len(l.bufs) < len(p.nodes) {
			l.bufs = make([][]float32, len(p.nodes))
		}
		if len(l.srcs) < p.maxInputs {
			l.srcs = make([][]float32, p.maxInputs)
		}
	}
	if p.bandDW == 0 {
		return
	}
	if nw := workersFor(math.MaxInt); len(g.bands) < nw {
		g.bands = append(g.bands, make([]bandScratch, nw-len(g.bands))...)
	}
	for i := range g.bands {
		s := &g.bands[i]
		if len(s.dw) < p.bandDW {
			s.dw = make([]float32, p.bandDW)
		}
		if len(s.pw) < p.bandPW {
			s.pw = make([]float32, p.bandPW)
		}
	}
}

// begin writes everything a forward of n samples on the given number of lanes
// leaves on the layers and on the plan's nodes, before the lanes start and
// only read them: the geometry Cost and the per-image bodies go by — of the
// whole batch, as a layer's own Forward records it —, the im2col scratch of
// each lane, every fused batch norm's 1/sqrt(var+eps) from the statistics as
// they are now, and the drop of what a training forward cached.
//
//skynet:hotpath
func (p *Plan) begin(n, lanes int) {
	for i := range p.nodes {
		pn := &p.nodes[i]
		if pn.fused {
			continue
		}
		in := p.shapeOf(pn.inputs[0])
		switch l := pn.layer.(type) {
		case *Conv2D:
			l.record(n, in[2], in[3])
			if !l.direct() {
				l.ensureScratch(lanes)
			}
			pn.fillInv()
		case *DWConv3:
			l.record(n, in[2], in[3])
			if b := pn.band; b != nil {
				b.pw.record(n, l.outH, l.outW)
				p.nodes[b.conv].fillInv()
			}
		case *BatchNorm:
			l.xhat = nil
		}
	}
}

// Run executes the plan on x, whose sample shape must be the one the plan
// was compiled for, and returns the graph output, a fresh tensor that is the
// caller's; every other feature map is an arena slot. The samples go to
// LanesFor(n) lanes as RunLanes deals them, or to one lane when there is an
// observer, which has to see them in order: observe, when non-nil, is shown
// each output the forward materialises, in place and before anything
// overwrites it — each step's Out, for a Bundle step the pooled map, the
// depth-wise and pre-pool maps being never whole anywhere — sample by sample,
// so that it sees a node's values in batch order.
//
// Two forwards are not the plan's to run, and walk the layers instead, whole
// batch by whole batch, every node's output a fresh tensor that is handed to
// observe and dropped when Run returns: one under an FMHook, which is shown
// every node's tensor first, and one of a graph with a layer kind the executor
// does not lower — such a layer keeps state of its own and may treat a batch
// as more than its samples (a Linear's GEMM picks its kernel by the batch
// size), so only its own Forward on the whole batch is the layer walk's bits
// and leaves the batch's geometry for Cost.
// Graph.Forward(x, false) is Run with no observer.
func (p *Plan) Run(x *tensor.Tensor, observe func(node int, data []float32)) *tensor.Tensor {
	if !slices.Equal(p.in[1:], x.Shape()[1:]) {
		panic(fmt.Sprintf("nn: plan compiled for samples of shape %v run on input %v", p.in[1:], x.Shape()))
	}
	g, n := p.g, x.Dim(0)
	for i := range p.shapes {
		p.shapes[i][0] = n
	}
	if g.FMHook != nil || p.unlowered {
		return g.walk(x, false, func(i int, out *tensor.Tensor) {
			if observe != nil {
				observe(i, out.Data)
			}
		})
	}
	lanes := 1
	if observe == nil {
		lanes = LanesFor(n)
	}
	p.prepare(lanes)
	p.begin(n, lanes)
	out := tensor.New(p.shapes[p.output]...)
	g.run = planRun{p: p, lanes: g.lanes, bands: g.bands, x: x.Data, out: out.Data, n: n, observe: observe}
	RunLanes(&g.run, n, lanes)
	for _, l := range g.lanes[:lanes] {
		clear(l.bufs)
	}
	g.run = planRun{}
	return out
}

// WalkSample takes sample i of the forward in flight through the plan's steps
// on lane li, for RunLanes.
//
//skynet:hotpath
func (r *planRun) WalkSample(li, i int, leaf bool) {
	p, l, per := r.p, r.lanes[li], len(r.x)/r.n
	x := r.x[i*per : (i+1)*per]
	for k := range p.nodes {
		pn := &p.nodes[k]
		if pn.fused {
			continue
		}
		out := p.slot(k) // the node whose output this step writes
		r.step(pn, li, l.dest(r, out, i), x, leaf)
		if r.observe != nil {
			r.observe(out, l.bufs[out])
		}
		if poisonReleased {
			for _, s := range pn.frees {
				buf := l.bufs[s]
				for j := range buf {
					buf[j] = float32(math.NaN())
				}
			}
		}
	}
}

// step runs one step on the sample lane li has in flight: into dst, from the
// lane's outputs so far (x for the graph input). On a leaf walk every op stays
// on the calling goroutine; else a convolution's GEMM dispatches, and the
// depth-wise planes and a Bundle step's units split, across the GEMM pool.
//
//skynet:hotpath
func (r *planRun) step(pn *planNode, li int, dst, x []float32, leaf bool) {
	p, l := r.p, r.lanes[li]
	in, src := p.shapeOf(pn.inputs[0]), l.input(pn.inputs[0], x)
	switch layer := pn.layer.(type) {
	case *Conv2D:
		layer.forwardImage(dst, src, li, layer.epilogue(pn.tail()), leaf)
	case *DWConv3:
		switch b := pn.band; {
		case b != nil && leaf:
			b.units(dst, src, b.pw.epilogue(p.nodes[b.conv].tail()), &r.bands[li], 0, layer.outH/b.k)
		case b != nil:
			b.split(dst, src, b.pw.epilogue(p.nodes[b.conv].tail()), r.bands)
		case leaf:
			layer.planes(dst, src, 0, layer.C)
		default:
			layer.splitPlanes(dst, src, 1)
		}
	case *BatchNorm:
		layer.evalInto(dst, src, 1, in[2]*in[3])
	case *ReLU:
		reluInto(dst, src, layer.Cap)
	case *MaxPool:
		maxPoolInto(dst, src, in[1], in[2], in[3], layer.K)
	case *Reorg:
		ReorgInto(dst, src, 1, in[1], in[2], in[3], layer.S)
	case *Add:
		addInto(dst, src, l.input(pn.inputs[1], x))
	case *Concat:
		srcs := l.srcs[:len(pn.inputs)]
		for k, j := range pn.inputs {
			srcs[k] = l.input(j, x)
		}
		concatInto(dst, srcs, pn.chans, 1, in[2]*in[3])
		clear(srcs)
	}
}

// fillInv refreshes a fusing conv's inv from its chain's batch norm.
//
//skynet:hotpath
func (pn *planNode) fillInv() {
	if bn := pn.chain.BN; bn != nil {
		for c := range pn.inv {
			pn.inv[c] = bn.evalInv(c)
		}
	}
}

// tail is what a fusing conv's GEMM store applies: its chain's batch norm,
// with the statistics as they were when the forward began, and activation.
//
//skynet:hotpath
func (pn *planNode) tail() tensor.RowEpilogue {
	var ep tensor.RowEpilogue
	if bn := pn.chain.BN; bn != nil {
		ep.Gamma, ep.Mean, ep.Inv, ep.Beta = bn.Gamma.W.Data, bn.RunMean.Data, pn.inv, bn.Beta.W.Data
	}
	if act := pn.chain.Act; act != nil {
		ep.ReLU, ep.Cap = true, act.Cap
	}
	return ep
}

// dest notes and returns the memory node o's output of sample i is written
// to: o's slot in the lane's region, or without one — the graph output —
// the sample's rows of the output batch.
//
//skynet:hotpath
func (l *lane) dest(r *planRun, o, i int) []float32 {
	pn := &r.p.nodes[o]
	if pn.off < 0 {
		l.bufs[o] = r.out[i*pn.size : (i+1)*pn.size]
	} else {
		l.bufs[o] = l.arena[pn.off : pn.off+pn.size]
	}
	return l.bufs[o]
}

// input returns node j's output for the sample in flight (x, the sample
// itself, for GraphInput).
//
//skynet:hotpath
func (l *lane) input(j int, x []float32) []float32 {
	if j == GraphInput {
		return x
	}
	return l.bufs[j]
}
