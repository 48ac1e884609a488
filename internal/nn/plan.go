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
// maxPoolInto, ReorgInto, addInto, concatInto, Linear.forwardSample; Flatten
// and eval-mode Dropout are copies); a layer's Forward and the executor
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
// once per layer. And because a lane holds one sample, that sample's channel
// concatenation is its inputs end to end: where the graph allows it a Concat
// is where its inputs were written (findAliases, layout), not a step.

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
	r := readersOf(g, separate)
	chains := make([]ConvChain, len(g.Nodes))
	for i, n := range g.Nodes {
		if _, ok := n.Layer.(*Conv2D); !ok || r.marked(i) {
			continue
		}
		ch := &chains[i]
		j := r.next(i)
		if j >= 0 {
			if bn, ok := g.Nodes[j].Layer.(*BatchNorm); ok {
				ch.BN, ch.Tail = bn, append(ch.Tail, j)
				j = r.next(j)
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

// readers is who reads what in a graph, and the mask a plan of it is compiled
// under: what every decision to fuse, fold or alias goes by.
type readers struct {
	of       [][]int // by node: the nodes that read it, once per input that names it
	output   int     // the graph output, which counts as one more reader of its node
	separate []bool
}

func readersOf(g *Graph, separate []bool) readers {
	r := readers{of: make([][]int, len(g.Nodes)), output: g.output(), separate: separate}
	for i, n := range g.Nodes {
		for _, j := range n.Inputs {
			if j != GraphInput {
				r.of[j] = append(r.of[j], i)
			}
		}
	}
	return r
}

func (r readers) marked(i int) bool { return r.separate != nil && r.separate[i] }

// next is the one rule of fusion: the node that may fuse onto node i — its
// only reader, when that is not marked — or -1.
func (r readers) next(i int) int {
	if of := r.of[i]; len(of) == 1 && i != r.output && !r.marked(of[0]) {
		return of[0]
	}
	return -1
}

// bypass is the rule of the bypass source (Figure 4's "Bypass Start"): when
// node i is read by exactly a MaxPool and a Reorg of the pool's window,
// neither marked and neither the graph output, it returns the two; else -1s.
func (r readers) bypass(g *Graph, i int) (pool, reorg int) {
	of := r.of[i]
	if len(of) != 2 || i == r.output || r.marked(of[0]) || r.marked(of[1]) || of[0] == r.output || of[1] == r.output {
		return -1, -1
	}
	for k := range of {
		mp, isPool := g.Nodes[of[k]].Layer.(*MaxPool)
		ro, isReorg := g.Nodes[of[1-k]].Layer.(*Reorg)
		if isPool && isReorg && mp.K == ro.S {
			return of[k], of[1-k]
		}
	}
	return -1, -1
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
	fused bool      // has no step of its own: a chain's tail, a Bundle step's conv, pool and reorg, an alias
	chans []int     // Concat: channels of each input
	// alias marks a Concat that is not computed but laid out: its inputs'
	// slots, side by side in channel order, are its slot (findAliases).
	alias bool

	// off is the offset, within a lane's region of the arena, of the slot this
	// node's output is written to; -1 when it has none (fused into a later
	// node's slot, the graph output).
	off int
	// frees lists the nodes whose slots nothing reads after this step: the
	// inputs of an alias stand there for it.
	frees []int
}

// Plan is a compiled inference schedule of one graph at one input sample
// shape. Arena rule: a slot is written by exactly one step and is alive from
// that step to the last step that reads it (frees), both included; slots
// alive at the same step share no element (layout), so an op never reads and
// writes the same memory.
type Plan struct {
	g      *Graph
	nodes  []planNode
	output int
	in     []int   // input shape of one sample: in[0] is 1
	shapes [][]int // the nodes' output shapes at the batch of the last forward, as Graph.OutShapes
	// perSample is the arena a sample's walk needs, in elements: a lane's
	// region, whatever the batch.
	perSample int
	// bandLen is the length of the band buffer the plan's largest Bundle
	// band needs of each worker; zero without a Bundle step.
	bandLen int
}

// maxPlans bounds the plans a graph keeps, one per input sample shape; the
// least recently used is dropped.
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
// DWConv3, MaxPool or Reorg likewise joins no Bundle step, a marked Concat is
// computed, not laid out: a marked node is a step of its own — and lays the
// feature maps out in the arena. Graph.Forward compiles with a nil mask and keeps
// the plan; another caller's plan is valid while g's node list is.
func Compile(g *Graph, in []int, separate []bool) *Plan {
	p := &Plan{g: g, nodes: make([]planNode, len(g.Nodes)), output: g.output(),
		in: slices.Clone(in), shapes: make([][]int, len(g.Nodes))}
	p.in[0] = 1
	chains := ConvChains(g, separate)
	for i, n := range g.Nodes {
		pn := &p.nodes[i]
		pn.layer, pn.inputs, pn.off = n.Layer, slices.Clone(n.Inputs), -1
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
		case *Flatten:
			pn.dims = []int{1, 1}
			for _, d := range shapes[0][1:] {
				pn.dims[1] *= d
			}
		case *Dropout:
			pn.dims = slices.Clone(shapes[0])
		case *Linear:
			l.expect(shapes[0])
			pn.dims = []int{1, l.Out}
		default:
			panic(fmt.Sprintf("nn: layer %s (node %d) is of a kind the inference plan does not lower", n.Layer.Name(), i))
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
	use := readersOf(g, separate)
	p.findBands(use)
	p.findAliases(use)
	p.layout()
	return p
}

// findBands turns every DWConv3 → 1×1 Conv2D over a sole-consumer edge into
// one Bundle step headed by the depth-wise node, and folds in what reads the
// convolution's chain: the MaxPool that alone does, unless its output is the
// graph's, or the MaxPool and the Reorg of a bypass source, both. Like a
// chain, it follows the readers' edges under the mask.
func (p *Plan) findBands(use readers) {
	for i := range p.nodes {
		dw, ok := p.nodes[i].layer.(*DWConv3)
		if !ok || use.marked(i) {
			continue
		}
		conv := use.next(i)
		if conv < 0 {
			continue
		}
		pw, ok := p.nodes[conv].layer.(*Conv2D)
		if !ok || !pw.direct() {
			continue
		}
		last := p.nodes[conv].chain.Last(conv)
		b := &band{dw: dw, pw: pw, head: i, conv: conv, last: last, pool: -1, reorg: -1, out: last, k: 1}
		pool, reorg := use.bypass(p.g, b.out)
		if j := use.next(b.out); j >= 0 && j != p.output {
			pool = j
		}
		if pool >= 0 {
			if mp, ok := p.nodes[pool].layer.(*MaxPool); ok {
				b.pool, b.reorg, b.out, b.k = pool, reorg, pool, mp.K
				p.nodes[pool].fused = true
				if reorg >= 0 {
					p.nodes[reorg].fused = true
				}
			}
		}
		p.nodes[conv].fused = true
		p.nodes[i].band = b
		b.fit(p.nodes[i].dims[2], p.nodes[i].dims[3])
		p.bandLen = max(p.bandLen, b.len)
	}
}

// findAliases makes a Concat a fact of the layout where the graph allows it:
// every input reaches it over a sole-consumer edge — so is neither the graph
// input, nor the graph output, nor named twice — and is a slot some step
// writes, unmarked; the Concat itself is unmarked, read by somebody and not
// the graph output. A lane walks one sample, whose channel concatenation is
// its inputs end to end: layout gives them one slot, each producer writes its
// range through the dst it is handed, and no step copies anything.
func (p *Plan) findAliases(use readers) {
	for i := range p.nodes {
		pn := &p.nodes[i]
		if _, ok := pn.layer.(*Concat); !ok || use.marked(i) || i == p.output || len(use.of[i]) == 0 {
			continue
		}
		pn.alias = true
		for _, j := range pn.inputs {
			if j == GraphInput || use.next(j) != i || use.marked(j) || p.nodes[j].alias {
				pn.alias = false
			}
		}
		pn.fused = pn.alias
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

// layout places every slot in a lane's region, in one pass over the whole
// plan's lifetimes. A slot is alive from the step that writes it to the last
// step that reads it; two slots share elements only if no step finds both
// alive. An alias is a group: its inputs' slots at fixed offsets from one
// another, each alive from its own producer to the alias's last reader — so
// the elements under an input written late may serve a short-lived map first
// (SkyNet C's pool 3 lies where Bundle 5 will write). Groups and lone slots go
// largest first, each to the lowest offset at which all of its slots are
// clear of every placed slot they share a step with.
func (p *Plan) layout() {
	n := len(p.nodes)
	// By node: the step (its node) that writes its slot and the last that reads
	// it; whether it has a slot; whether that is placed with an alias's.
	born, last := make([]int, n), make([]int, n)
	owns, grouped := make([]bool, n), make([]bool, n)
	for i := range p.nodes {
		pn := &p.nodes[i]
		if pn.fused && !pn.alias {
			continue
		}
		for _, j := range pn.inputs {
			if j != GraphInput {
				last[j], grouped[j] = i, pn.alias
			}
		}
		if pn.alias {
			continue
		}
		outs := [2]int{p.slot(i), -1}
		if pn.band != nil {
			outs[1] = pn.band.reorg
		}
		for _, o := range outs {
			if o >= 0 && o != p.output {
				owns[o], born[o], last[o] = true, i, i // an output nobody reads dies with its step
			}
		}
	}
	var heads []int // what is placed: a lone slot, or an alias for its inputs
	for i := range p.nodes {
		if pn := &p.nodes[i]; pn.alias {
			at := 0
			for _, j := range pn.inputs {
				p.nodes[j].off, last[j] = at, last[i]
				at += p.nodes[j].size
			}
			heads = append(heads, i)
		} else if owns[i] && !grouped[i] {
			pn.off = 0
			heads = append(heads, i)
		}
	}
	slices.SortStableFunc(heads, func(a, b int) int { return p.nodes[b].size - p.nodes[a].size })
	var placed []int
	for _, h := range heads {
		slots := []int{h}
		if p.nodes[h].alias {
			slots = p.nodes[h].inputs
		}
		base := 0
		for bumped := true; bumped; {
			bumped = false
			for _, s := range slots {
				for _, q := range placed {
					a, b := &p.nodes[s], &p.nodes[q]
					if born[s] <= last[q] && born[q] <= last[s] && base+a.off < b.off+b.size && b.off < base+a.off+a.size {
						base, bumped = b.off+b.size-a.off, true
					}
				}
			}
		}
		for _, s := range slots {
			p.nodes[s].off += base
		}
		p.nodes[h].off = base
		placed = append(placed, slots...)
		p.perSample = max(p.perSample, base+p.nodes[h].size)
	}
	for s := range p.nodes {
		if owns[s] {
			f := &p.nodes[last[s]]
			f.frees = append(f.frees, s)
		}
	}
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
	// or -1 for the graph output, which has none.
	Off   int
	Frees []int // the nodes whose slots nothing reads after this step
	// Laid lists the Concats laid out (findAliases) that come next in node order,
	// whole once this step has run, each as a step with its inputs' slots for one.
	Laid []Step
}

// Band is the rest of a Bundle step, whose Node is a DWConv3: the step
// computes Node, then the 1×1 convolution Conv with the step's Chain fused,
// then the max-pool Pool, band by band, and materialises only the last of
// them — and, at a bypass source, the reordered map beside it.
type Band struct {
	Conv int // the 1×1 Conv2D node that alone consumes Node
	Pool int // the MaxPool node that consumes the chain, or -1
	// Reorg is the Reorg node that reads the chain beside Pool, or -1: the step
	// writes its map too, ReorgSize elements at ReorgOff (as Step.Off).
	Reorg, ReorgOff, ReorgSize int
	// Rows is how many depth-wise output rows a band holds at most, a whole
	// number of pool windows, and Len the worker buffer it needs.
	Rows, Len int
}

// Steps returns the plan's steps in execution order and the arena one
// sample's walk through them needs, in elements. The slices belong to the
// plan.
func (p *Plan) Steps() (steps []Step, perSample int) {
	for i := range p.nodes {
		switch pn := &p.nodes[i]; {
		case pn.alias:
			last := &steps[len(steps)-1]
			last.Laid = append(last.Laid, Step{Node: i, Out: i, Inputs: pn.inputs, Dims: pn.dims, Size: pn.size, Off: pn.off})
		case !pn.fused:
			o := &p.nodes[p.slot(i)]
			st := Step{Node: i, Out: p.slot(i), Inputs: pn.inputs, Chain: pn.chain,
				Dims: o.dims, Size: o.size, Off: o.off, Frees: pn.frees}
			if b := pn.band; b != nil {
				st.Chain, st.Band = p.nodes[b.conv].chain, &Band{Conv: b.conv, Pool: b.pool, Reorg: b.reorg, Rows: b.rows, Len: b.len}
				if b.reorg >= 0 {
					st.Band.ReorgOff, st.Band.ReorgSize = p.nodes[b.reorg].off, p.nodes[b.reorg].size
				}
			}
			steps = append(steps, st)
		}
	}
	return steps, p.perSample
}

// lane is one worker's share of an inference forward: it walks its samples,
// one after the other, through the plan's steps on a region of the arena one
// sample large. What differs between two samples in flight — the region, the
// output rows, the argument list of the step being run — is here, so that
// lanes running side by side only read the plan and the layers.
type lane struct {
	arena []float32 // the lane's region of g.arena
	out   []float32 // the rows of the output batch the sample in flight fills
	// band is the buffer of the Bundle band in flight on worker i, for the
	// i-th lane: its own, or a lone lane's i-th split.
	band  []float32
	share bandShare // the Bundle step in flight, as RunBands' workers read it
}

// planRun is the inference forward in flight on a graph: what RunLanes walks.
type planRun struct {
	p      *Plan
	lanes  []*lane   // lanes[i] also owns every Conv2D's im2col scratch i
	x, out []float32 // the input batch and the output batch, n samples each
	n      int
	// observe is RunInto's.
	observe func(node int, data []float32)
}

// prepare readies the graph for lanes of p: the arena, one region per lane,
// and the lanes themselves with the band buffers of every worker. All only
// grow — the arena to the most lanes and the largest plan seen, never with
// the batch — so a caller that varies its batch size settles at once, and a
// forward after that allocates nothing.
//
//skynet:hotpath
func (p *Plan) prepare(lanes int) {
	g := p.g
	if need := p.perSample * lanes; len(g.arena) < need {
		// Dropped first: the collection this allocation may start would
		// otherwise mark old and new both live and pace itself on the sum.
		g.arena = nil
		g.arena = tensor.New(need).Data
	}
	workers := lanes
	if p.bandLen > 0 {
		workers = max(lanes, workersFor(math.MaxInt))
	}
	for len(g.lanes) < workers {
		//skynet:nolint hotalloc -- grow-once: the lanes grow to the most workers a forward has had, then every forward reuses them
		g.lanes = append(g.lanes, &lane{})
	}
	for i, l := range g.lanes[:lanes] {
		l.arena = g.arena[i*p.perSample : (i+1)*p.perSample]
	}
	if p.bandLen == 0 {
		return
	}
	for _, l := range g.lanes {
		if len(l.band) < p.bandLen {
			l.band = tensor.New(p.bandLen).Data
		}
	}
}

// begin writes everything a forward of n samples on the given number of lanes
// leaves on the layers and on the plan's nodes, before the lanes start and
// only read them: the geometry Cost and the per-image bodies read — of the
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
		case *Linear:
			l.x, l.lastN = nil, n
		}
	}
}

// Run executes the plan on x, whose sample shape must be the one the plan
// was compiled for, and returns the graph output: RunInto a fresh tensor,
// which is the caller's.
func (p *Plan) Run(x *tensor.Tensor, observe func(node int, data []float32)) *tensor.Tensor {
	out := tensor.New(p.batch(x.Dim(0))...)
	p.RunInto(out, x, observe)
	return out
}

// OutShape returns the shape of the output of a forward of n samples, a
// slice that is the caller's.
func (p *Plan) OutShape(n int) []int {
	s := slices.Clone(p.shapes[p.output])
	s[0] = n
	return s
}

// batch sets the recorded shapes to a forward of n samples and returns the
// output's.
//
//skynet:hotpath
func (p *Plan) batch(n int) []int {
	for i := range p.shapes {
		p.shapes[i][0] = n
	}
	return p.shapes[p.output]
}

// RunInto executes the plan on x, whose sample shape must be the one the plan
// was compiled for, writing the graph output into dst, which must have its
// shape; every other feature map is an arena slot, and once the arena and
// lanes fit, nothing is allocated. The samples are dealt to
// LanesFor(n) lanes as RunLanes deals them, or, when there is an observer, to
// one lane, sample after sample. observe, when non-nil, is shown every map
// the forward computes, in place and before anything overwrites it: whole,
// each step's Out, the reordered map a Bundle step gathers beside its pooled
// one, and a Concat that is laid out, not computed, once its last input is
// written — in node order within a sample; in pieces, a Bundle step's
// depth-wise map (as its DWConv3 node) and, under a pool, the map before it
// (as the chain's last node), band by band, never whole anywhere — every row
// of both, those below the pool's last whole window included. The pieces
// of one step may come from several band workers at once and in any order,
// so an observer must be safe for concurrent use and must not depend on the
// order of what it is shown within a step. Graph.Forward(x, false) is Run
// with no observer.
//
//skynet:hotpath
func (p *Plan) RunInto(dst, x *tensor.Tensor, observe func(node int, data []float32)) {
	if !slices.Equal(p.in[1:], x.Shape()[1:]) {
		panic(fmt.Sprintf("nn: plan compiled for samples of shape %v run on input %v", p.in[1:], x.Shape()))
	}
	g, n := p.g, x.Dim(0)
	if want := p.batch(n); !slices.Equal(dst.Shape(), want) {
		panic(fmt.Sprintf("nn: plan output %v written into %v", want, dst.Shape()))
	}
	lanes := 1
	if observe == nil {
		lanes = LanesFor(n)
	}
	p.prepare(lanes)
	p.begin(n, lanes)
	g.run = planRun{p: p, lanes: g.lanes, x: x.Data, out: dst.Data, n: n, observe: observe}
	RunLanes(&g.run, n, lanes)
	for _, l := range g.lanes[:lanes] {
		l.out = nil
	}
	g.run = planRun{}
}

// WalkSample takes sample i of the forward in flight through the plan's steps
// on lane li, for RunLanes.
//
//skynet:hotpath
func (r *planRun) WalkSample(li, i int, leaf bool) {
	p, l, per, outPer := r.p, r.lanes[li], len(r.x)/r.n, len(r.out)/r.n
	x := r.x[i*per : (i+1)*per]
	l.out = r.out[i*outPer : (i+1)*outPer]
	for k := range p.nodes {
		pn := &p.nodes[k]
		out := k
		switch {
		case pn.alias: // written, input by input, by now
		case pn.fused:
			continue
		default:
			out = p.slot(k) // the node whose output this step writes
			r.step(pn, li, l.buf(&p.nodes[out]), x, leaf)
		}
		if r.observe != nil {
			r.observe(out, l.buf(&p.nodes[out]))
			if b := pn.band; b != nil && b.reorg >= 0 {
				r.observe(b.reorg, l.buf(&p.nodes[b.reorg]))
			}
		}
		if poisonReleased {
			for _, s := range pn.frees {
				buf := l.buf(&p.nodes[s])
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
	in, src := p.shapeOf(pn.inputs[0]), l.input(p, pn.inputs[0], x)
	switch layer := pn.layer.(type) {
	case *Conv2D:
		layer.forwardImage(dst, src, li, layer.epilogue(pn.tail()), leaf)
	case *DWConv3:
		switch b := pn.band; {
		case b != nil:
			a := &l.share
			*a = bandShare{b: b, dst: dst, src: src, ep: b.pw.epilogue(p.nodes[b.conv].tail()), observe: r.observe, workers: r.lanes}
			if b.reorg >= 0 {
				a.reorg = l.buf(&p.nodes[b.reorg])
			}
			RunBands(a, layer.outH/b.k, b.k, b.rows, li, len(r.lanes), leaf)
			if rest := layer.outH % b.k; rest > 0 && a.observe != nil {
				// The rows under no whole window, for the observer alone: the pool
				// writes nothing of them. (A step that folds a Reorg has none.)
				a.compute(l.band, layer.outH-rest, rest)
			}
			*a = bandShare{} // no operand of the forward stays on the lane
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
		addInto(dst, src, l.input(p, pn.inputs[1], x))
	case *Concat:
		hw := in[2] * in[3]
		for k, j := range pn.inputs {
			dst = dst[copy(dst, l.input(p, j, x)[:pn.chans[k]*hw]):]
		}
	case *Flatten, *Dropout:
		copy(dst, src)
	case *Linear:
		layer.forwardSample(dst, src)
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

// buf returns the memory the output of pn, a node with a step's or an alias's
// output, lies in for the sample in flight: its slot in the lane's region, or
// without one — the graph output — the sample's rows of the output batch.
//
//skynet:hotpath
func (l *lane) buf(pn *planNode) []float32 {
	if pn.off < 0 {
		return l.out
	}
	return l.arena[pn.off : pn.off+pn.size]
}

// input returns node j's output for the sample in flight (x, the sample
// itself, for GraphInput).
//
//skynet:hotpath
func (l *lane) input(p *Plan, j int, x []float32) []float32 {
	if j == GraphInput {
		return x
	}
	return l.buf(&p.nodes[j])
}
