package nn

import (
	"fmt"
	"math"
	"slices"

	"skynet/internal/tensor"
)

// This file is the inference side of Graph.Forward: a plan compiled once per
// (node list, Output, input sample shape) — one list of steps and one slot per
// node — and an executor, PlanCache, that walks it. It is the int8 engine's
// plan too: internal/quant keeps a PlanCache under a mask of nodes that stay units
// of their own, calibrates by running its plan in float under an observer
// (Run), and executes the same Steps with integer arithmetic on a []int8
// arena at the same offsets.
//
// The plan holds structure only — shapes, which BatchNorm and ReLU nodes
// fold into which convolution's GEMM store, and where in an executor's arena
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
// is where its inputs were written (findAliases, layout), computed by none.

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

// Slot is one map of one sample as a plan lays it out: its shape (Dims[0] is
// 1), its Size, and where it lies in a lane's region of the arena, [Off,
// Off+Size) — Off is -1 for the graph input and output, and inside a step.
type Slot struct {
	Dims      []int
	Off, Size int
}

// planNode is one graph node as the plan sees it. Nothing here changes while
// a forward's lanes run.
type planNode struct {
	layer  Layer
	inputs []int
	Slot   // the node's output

	chain ConvChain // Conv2D: what its GEMM store applies when fusing
	inv   []float32 // Conv2D with a chain BN: per-channel 1/sqrt(var+eps), refilled as every forward begins
	// packed is a Conv2D's weights in the GEMM's panels (tensor.PackA), made by
	// the plan's first forward and refilled as every forward begins.
	packed []float32

	// What Compile decides, node by node, before it lists the steps.
	band  *Band // DWConv3 heading a Bundle step (band.go); nil for the others
	fused bool  // has no step of its own: a chain's tail, a Bundle step's conv, pool and reorg, an alias
	// alias marks a Concat that is not computed but laid out: its inputs'
	// slots, side by side in channel order, are its slot (findAliases).
	alias bool
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
	c      *PlanCache // the executor the plan runs on
	nodes  []planNode
	steps  []Step // in execution order, listed once by Compile
	output int
	input  Slot    // the graph input's: Dims is the sample shape, Dims[0] 1
	shapes [][]int // the nodes' output shapes at the batch of the last forward, as Graph.OutShapes
	// perSample is the arena a sample's walk needs, in elements: a lane's
	// region, whatever the batch.
	perSample int
	// bandLen is the length of the band buffer the plan's largest Bundle
	// band needs of each worker; zero without a Bundle step.
	bandLen int
	// colLen is the im2col matrix of the plan's largest k×k convolution, in
	// elements: what each lane keeps for it.
	colLen int
}

// maxPlans bounds the plans a PlanCache keeps, one per input sample shape; the
// least recently used is dropped.
const maxPlans = 4

// poisonReleased makes the executor overwrite every arena slot with NaN as
// soon as the plan says nothing reads it any more. Tests set it: a slot
// handed out while still live then shows in the output.
var poisonReleased bool

// PlanCache is the executor of one graph's inference forwards under one
// mask: its plans, one per input sample shape, at most maxPlans, the most
// recently used first, and the memory they all run on. Graph.Forward (a cache
// per forward in flight, under no mask) and the int8 engine get every plan
// they run from one. A forward writes the cache and its plans, never the
// graph: a cache runs one forward at a time, different caches side by side.
type PlanCache struct {
	g        *Graph
	separate []bool // Compile's mask
	plans    []*Plan
	arena    []float32 // feature maps of the forward in flight: one sample's per lane
	lanes    []*lane   // the walks of the forward in flight, and the workers' band buffers; lanes[i] owns region i of arena

	// The forward in flight (WalkSample): its plan, input, a row per sample's output, observer.
	p       *Plan
	x       []float32
	outs    [][]float32
	observe func(node int, data []float32)
}

// NewPlanCache returns an empty cache of g's plans under the mask separate
// (Compile's; nil marks none), which it copies.
func NewPlanCache(g *Graph, separate []bool) *PlanCache {
	return &PlanCache{g: g, separate: slices.Clone(separate)}
}

// For returns the plan for samples of the given shape (shape[0] is ignored),
// compiling one on a miss. Once the graph's node list has changed the cache
// starts over.
func (c *PlanCache) For(shape []int) *Plan {
	if len(c.plans) > 0 && !c.plans[0].describes(c.g) {
		c.plans = nil
	}
	for i, p := range c.plans {
		if slices.Equal(p.input.Dims[1:], shape[1:]) {
			copy(c.plans[1:i+1], c.plans[:i])
			c.plans[0] = p
			return p
		}
	}
	p := c.compile(shape)
	c.plans = append([]*Plan{p}, c.plans[:min(len(c.plans), maxPlans-1)]...)
	return p
}

// Graph returns the graph whose plans the cache holds.
func (c *PlanCache) Graph() *Graph { return c.g }

// Len returns how many plans the cache holds.
func (c *PlanCache) Len() int { return len(c.plans) }

// Release drops what float forwards have left behind — the cache's arena,
// lanes and band buffers, and its plans' packed weights —, for the next float
// forward to make again.
func (c *PlanCache) Release() {
	c.arena, c.lanes = nil, nil
	for _, p := range c.plans {
		for i := range p.nodes {
			p.nodes[i].packed = nil
		}
	}
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
// computed, not laid out: a marked node is a step of its own —, lays the
// feature maps out in the arena and lists the steps. The plan runs on a
// PlanCache of its own, which holds no other; Graph.Forward's plans come from
// caches with a nil mask. A plan is valid while g's node list is.
func Compile(g *Graph, in []int, separate []bool) *Plan {
	return NewPlanCache(g, separate).compile(in)
}

// compile is Compile for a plan that runs on c.
func (c *PlanCache) compile(in []int) *Plan {
	g, separate := c.g, c.separate
	p := &Plan{c: c, nodes: make([]planNode, len(g.Nodes)), output: g.output(),
		input: Slot{Dims: slices.Clone(in), Off: -1, Size: 1}, shapes: make([][]int, len(g.Nodes))}
	p.input.Dims[0] = 1
	for _, d := range in[1:] {
		p.input.Size *= d
	}
	chains := ConvChains(g, separate)
	for i, n := range g.Nodes {
		pn := &p.nodes[i]
		pn.layer, pn.inputs, pn.Off = n.Layer, slices.Clone(n.Inputs), -1
		shapes := make([][]int, len(n.Inputs))
		for k, j := range n.Inputs {
			shapes[k] = p.Slot(j).Dims
		}
		switch l := n.Layer.(type) {
		case *Conv2D:
			expect4D(shapes[0], l.InC, l.label)
			outH, outW := l.outSize(shapes[0][2], shapes[0][3])
			pn.Dims = []int{1, l.OutC, outH, outW}
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
			pn.Dims = []int{1, l.C, outH, outW}
		case *BatchNorm:
			expect4D(shapes[0], l.C, "batchnorm")
			pn.Dims = slices.Clone(shapes[0])
		case *ReLU:
			pn.Dims = slices.Clone(shapes[0])
		case *MaxPool:
			expect4D(shapes[0], 0, "maxpool")
			pn.Dims = []int{1, shapes[0][1], shapes[0][2] / l.K, shapes[0][3] / l.K}
		case *Reorg:
			pn.Dims = l.outShape(shapes[0])
		case *Add:
			if len(shapes) != 2 || !slices.Equal(shapes[0], shapes[1]) {
				panic(fmt.Sprintf("nn: add (node %d) of shapes %v", i, shapes))
			}
			pn.Dims = slices.Clone(shapes[0])
		case *Concat:
			pn.Dims = concatShape(shapes)
		case *Flatten:
			pn.Dims = []int{1, 1}
			for _, d := range shapes[0][1:] {
				pn.Dims[1] *= d
			}
		case *Dropout:
			pn.Dims = slices.Clone(shapes[0])
		case *Linear:
			l.expect(shapes[0])
			pn.Dims = []int{1, l.Out}
		default:
			panic(fmt.Sprintf("nn: layer %s (node %d) is of a kind the inference plan does not lower", n.Layer.Name(), i))
		}
		pn.Size = 1
		for _, d := range pn.Dims[1:] {
			pn.Size *= d
		}
		if pn.Size <= 0 {
			panic(fmt.Sprintf("nn: layer %s (node %d) has empty output shape %v for input %v", n.Layer.Name(), i, pn.Dims, shapes))
		}
		p.shapes[i] = slices.Clone(pn.Dims)
	}
	use := readersOf(g, separate)
	p.findBands(use)
	p.findAliases(use)
	p.layout()
	p.listSteps()
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
		b := &Band{dw: dw, pw: pw, Conv: conv, Pool: -1, Reorg: -1, K: 1}
		out := p.nodes[conv].chain.Last(conv)
		pool, reorg := use.bypass(p.c.g, out)
		if j := use.next(out); j >= 0 && j != p.output {
			pool = j
		}
		if pool >= 0 {
			if mp, ok := p.nodes[pool].layer.(*MaxPool); ok {
				b.Pool, b.Reorg, b.K = pool, reorg, mp.K
				p.nodes[pool].fused = true
				if reorg >= 0 {
					p.nodes[reorg].fused = true
				}
			}
		}
		p.nodes[conv].fused = true
		p.nodes[i].band = b
		b.fit(p.nodes[i].Dims[2], p.nodes[i].Dims[3])
		p.bandLen = max(p.bandLen, b.Len)
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

// Slot returns node j's output as the plan lays it out for one sample (the
// graph input's for GraphInput). Its Dims belong to the plan.
//
//skynet:hotpath
func (p *Plan) Slot(j int) Slot {
	if j == GraphInput {
		return p.input
	}
	return p.nodes[j].Slot
}

// slot returns the node whose output the step headed by node i writes: a
// Bundle step's pool or chain end, the end of its chain for a fusing conv, i
// itself otherwise.
func (p *Plan) slot(i int) int {
	if b := p.nodes[i].band; b != nil {
		if b.Pool >= 0 {
			return b.Pool
		}
		return p.nodes[b.Conv].chain.Last(b.Conv)
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
			outs[1] = pn.band.Reorg
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
				p.nodes[j].Off, last[j] = at, last[i]
				at += p.nodes[j].Size
			}
			heads = append(heads, i)
		} else if owns[i] && !grouped[i] {
			pn.Off = 0
			heads = append(heads, i)
		}
	}
	slices.SortStableFunc(heads, func(a, b int) int { return p.nodes[b].Size - p.nodes[a].Size })
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
					if born[s] <= last[q] && born[q] <= last[s] && base+a.Off < b.Off+b.Size && b.Off < base+a.Off+a.Size {
						base, bumped = b.Off+b.Size-a.Off, true
					}
				}
			}
		}
		for _, s := range slots {
			p.nodes[s].Off += base
		}
		p.nodes[h].Off = base
		placed = append(placed, slots...)
		p.perSample = max(p.perSample, base+p.nodes[h].Size)
	}
	for s := range p.nodes {
		if owns[s] {
			f := &p.nodes[last[s]]
			f.frees = append(f.frees, s)
		}
	}
}

// Step is one step of a plan, as the float executor and the int8 engine both
// walk it: the node whose layer runs and the one output it materialises.
type Step struct {
	Node   int       // the node the step runs
	Out    int       // the node whose output it writes: Chain.Last(Node), or a Bundle step's last node
	Inputs []int     // Node's inputs (GraphInput for the graph's)
	Chain  ConvChain // what fuses into a Conv2D step, or into a Bundle step's convolution
	Band   *Band     // what a DWConv3 step runs beyond Node when it is a Bundle step; nil otherwise
	Slot             // Out's: Off is -1 for the graph output, which has none
	Frees  []int     // the nodes whose slots nothing reads after this step
	// Laid marks a Concat laid out (findAliases): its inputs' slots, side by
	// side, are its slot, whole once the steps before it have run; an engine
	// on other grids may requantize an input where it lies.
	Laid bool
}

// listSteps lists the plan's steps in node order: a step for every node that
// is not fused into another's, a laid-out Concat included.
func (p *Plan) listSteps() {
	for i := range p.nodes {
		pn := &p.nodes[i]
		if pn.fused && !pn.alias {
			continue
		}
		out := p.slot(i)
		st := Step{Node: i, Out: out, Inputs: pn.inputs, Chain: pn.chain, Band: pn.band, Slot: p.nodes[out].Slot, Frees: pn.frees, Laid: pn.alias}
		if b := pn.band; b != nil {
			st.Chain = p.nodes[b.Conv].chain
		}
		p.steps, p.colLen = append(p.steps, st), max(p.colLen, p.ColLen(&st))
	}
}

// Steps returns the plan's steps in execution order and the arena one
// sample's walk through them needs, in elements. Both belong to the plan.
//
//skynet:hotpath
func (p *Plan) Steps() (steps []Step, perSample int) { return p.steps, p.perSample }

// lane is one worker's share of an inference forward: it walks its samples,
// one after the other, through the plan's steps on a region of the arena one
// sample large. What differs between two samples in flight — the region, the
// sample and its output rows, the im2col scratch, the Bundle step being run —
// is here, so that lanes running side by side only read the plan and the
// layers. It is the Maps its steps read their inputs from.
type lane struct {
	c     *PlanCache
	arena []float32 // the lane's region of the cache's arena
	x     []float32 // the sample in flight
	out   []float32 // the rows of the output batch the sample in flight fills
	col   []float32 // the im2col matrix of the k×k convolution in flight
	// band is the buffer of the Bundle band in flight on worker i, for the
	// i-th lane: its own, or a lone lane's i-th split.
	band  []float32
	share bandShare // the Bundle step in flight, as RunBands' workers read it
}

// prepare readies p and its cache for a forward on the given number of lanes,
// before the lanes start and only read them: every step loaded (Load), the
// arena, one region per lane, and the lanes with their im2col scratch and
// every worker's band buffer. All only grow, never with the batch, so a
// forward once they fit allocates nothing.
//
//skynet:hotpath
func (p *Plan) prepare(lanes int) {
	for i := range p.steps {
		p.Load(&p.steps[i])
	}
	c := p.c
	if need := p.perSample * lanes; len(c.arena) < need {
		// Dropped first: the collection this allocation may start would
		// otherwise mark old and new both live and pace itself on the sum.
		c.arena = nil
		c.arena = tensor.New(need).Data
	}
	workers := lanes
	if p.bandLen > 0 {
		workers = max(lanes, workersFor(math.MaxInt))
	}
	for len(c.lanes) < workers {
		//skynet:nolint hotalloc -- grow-once: the lanes grow to the most workers a forward has had, then every forward reuses them
		c.lanes = append(c.lanes, &lane{c: c})
	}
	for i, l := range c.lanes[:lanes] {
		l.arena = c.arena[i*p.perSample : (i+1)*p.perSample]
		if len(l.col) < p.colLen {
			l.col = tensor.New(p.colLen).Data
		}
	}
	if p.bandLen == 0 {
		return
	}
	for _, l := range c.lanes {
		if len(l.band) < p.bandLen {
			l.band = tensor.New(p.bandLen).Data
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
// order of what it is shown within a step. Under a mask marking every node,
// each map is shown whole, once, before any step reads it, and the observer
// may rewrite it (quant.Emulate). Graph.Forward(x, false) is Run with none.
//
//skynet:hotpath
func (p *Plan) RunInto(dst, x *tensor.Tensor, observe func(node int, data []float32)) {
	if want := p.batch(x.Dim(0)); !slices.Equal(dst.Shape(), want) {
		panic(fmt.Sprintf("nn: plan output %v written into %v", want, dst.Shape()))
	}
	p.run(SampleRows(p.c.outs, dst.Data, x.Dim(0)), x, observe)
}

// run is RunInto's forward, sample i's output into outs[i].
//
//skynet:hotpath
func (p *Plan) run(outs [][]float32, x *tensor.Tensor, observe func(node int, data []float32)) {
	if !slices.Equal(p.input.Dims[1:], x.Shape()[1:]) {
		panic(fmt.Sprintf("nn: plan compiled for samples of shape %v run on input %v", p.input.Dims[1:], x.Shape()))
	}
	c, n := p.c, x.Dim(0)
	lanes := 1
	if observe == nil {
		lanes = LanesFor(n)
	}
	p.prepare(lanes)
	c.p, c.x, c.outs, c.observe = p, x.Data, outs, observe
	RunLanes(c, n, lanes)
	for _, l := range c.lanes[:lanes] {
		l.x, l.out = nil, nil
	}
	clear(c.outs)
	c.p, c.x, c.observe = nil, nil, nil // no operand of the forward stays on the cache
}

// SampleRows returns rows, its storage reused, holding data's n rows.
//
//skynet:hotpath
func SampleRows(rows [][]float32, data []float32, n int) [][]float32 {
	rows, per := slices.Grow(rows[:0], n)[:n], len(data)/n // grows past the largest batch yet, never after
	for i := range rows {
		rows[i] = data[i*per : (i+1)*per : (i+1)*per]
	}
	return rows
}

// SampleOuts returns rows, its storage reused, holding the data of the first n
// outs, each made a tensor of the sample shape dims if nil or of another shape.
//
//skynet:hotpath
func SampleOuts(rows [][]float32, outs []*tensor.Tensor, n int, dims []int) [][]float32 {
	rows = slices.Grow(rows[:0], n)[:n]
	for i := range rows {
		if outs[i] == nil || !slices.Equal(outs[i].Shape(), dims) {
			outs[i] = tensor.New(dims...)
		}
		rows[i] = outs[i].Data
	}
	return rows
}

// WalkSample takes sample i of the forward in flight through the plan's steps
// on lane li, for RunLanes.
//
//skynet:hotpath
func (c *PlanCache) WalkSample(li, i int, leaf bool) {
	p, l := c.p, c.lanes[li]
	l.x, l.out = c.x[i*p.input.Size:(i+1)*p.input.Size], c.outs[i]
	for k := range p.steps {
		s := &p.steps[k]
		if !s.Laid { // a laid-out Concat is written, input by input, by now
			c.step(s, li, leaf)
		}
		if c.observe != nil {
			c.observe(s.Out, l.buf(s.Slot))
			if b := s.Band; b != nil && b.Reorg >= 0 {
				c.observe(b.Reorg, l.buf(p.Slot(b.Reorg)))
			}
		}
		if poisonReleased {
			for _, f := range s.Frees {
				buf := l.buf(p.Slot(f))
				for j := range buf {
					buf[j] = float32(math.NaN())
				}
			}
		}
	}
}

// step runs step s on the sample lane li has in flight: into its slot, from
// the lane's outputs so far. On a leaf walk every op stays on the calling
// goroutine; else a convolution's GEMM dispatches, and the depth-wise planes
// and a Bundle step's units split, across the GEMM pool.
//
//skynet:hotpath
func (c *PlanCache) step(s *Step, li int, leaf bool) {
	p, l, b := c.p, c.lanes[li], s.Band
	if b == nil {
		p.RunStep(s, l.buf(s.Slot), l, l.col, leaf)
		return
	}
	in, a, pw := p.Slot(s.Inputs[0]).Dims, &l.share, &p.nodes[b.Conv]
	*a = bandShare{s: s, dst: l.buf(s.Slot), src: l.Map(s.Inputs[0]), h: in[2], w: in[3], ep: b.pw.epilogue(pw.tail()), packed: pw.packed, observe: c.observe, workers: c.lanes}
	if b.Reorg >= 0 {
		a.reorg = l.buf(p.Slot(b.Reorg))
	}
	outH := p.nodes[s.Node].Dims[2]
	RunBands(a, outH/b.K, b.K, b.Rows, li, len(c.lanes), leaf)
	if rest := outH % b.K; rest > 0 && a.observe != nil {
		// The rows under no whole window, for the observer alone: the pool
		// writes nothing of them. (A step that folds a Reorg has none.)
		a.compute(l.band, outH-rest, rest)
	}
	*a = bandShare{} // no operand of the forward stays on the lane
}

// Maps is where RunStep reads a step's inputs: Map(j) is node j's output for
// the sample in flight, the sample itself for GraphInput.
type Maps interface{ Map(j int) []float32 }

// RunStep runs step s of p, any but a Bundle step, on one sample: from its
// inputs in in, into dst, which is as large as the step's Slot, with col as
// the im2col matrix of a k×k convolution (ColLen(s) elements; unused by
// the others). It is the one way a layer runs at inference — the executor's
// lanes, the int8 engine's float fallback units and the tracker's heads all
// call it —: it reads the layers and what Load left in the plan, and writes
// dst and col alone. leaf is as for step.
//
//skynet:hotpath
func (p *Plan) RunStep(s *Step, dst []float32, in Maps, col []float32, leaf bool) {
	pn, dims, src := &p.nodes[s.Node], p.Slot(s.Inputs[0]).Dims, in.Map(s.Inputs[0])
	switch layer := pn.layer.(type) {
	case *Conv2D:
		layer.forwardImage(dst, src, dims[2], dims[3], col, layer.epilogue(pn.tail()), pn.packed, leaf)
	case *DWConv3:
		if leaf {
			layer.planes(dst, src, dims[2], dims[3], 0, layer.C)
		} else {
			layer.splitPlanes(dst, src, 1, dims[2], dims[3])
		}
	case *BatchNorm:
		layer.evalInto(dst, src, 1, dims[2]*dims[3])
	case *ReLU:
		reluInto(dst, src, layer.Cap)
	case *MaxPool:
		maxPoolInto(dst, src, dims[1], dims[2], dims[3], layer.K)
	case *Reorg:
		ReorgInto(dst, src, 1, dims[1], dims[2], dims[3], layer.S)
	case *Add:
		addInto(dst, src, in.Map(s.Inputs[1]))
	case *Concat:
		for _, j := range s.Inputs {
			dst = dst[copy(dst, in.Map(j)):]
		}
	case *Flatten, *Dropout:
		copy(dst, src)
	case *Linear:
		layer.forwardSample(dst, src)
	}
}

// ColLen returns the im2col matrix RunStep needs of its col to run step s, in
// elements: zero but for a k×k convolution.
func (p *Plan) ColLen(s *Step) int {
	if c, ok := p.nodes[s.Node].layer.(*Conv2D); ok && !c.direct() {
		return c.InC * c.K * c.K * s.Dims[2] * s.Dims[3]
	}
	return 0
}

// Load refreshes from the layers as they are now what step s reads beside
// them: its convolution's weights in GEMM panels and a fused batch norm's
// 1/sqrt(var+eps). A forward loads every step as it begins; a caller of
// RunStep loads s first, while no RunStep of p runs.
//
//skynet:hotpath
func (p *Plan) Load(s *Step) {
	if b := s.Band; b != nil {
		p.nodes[b.Conv].fill()
	} else if _, ok := p.nodes[s.Node].layer.(*Conv2D); ok {
		p.nodes[s.Node].fill()
	}
}

// fill refreshes a conv node's inv from its chain's batch norm and its packed
// panels from its weights.
//
//skynet:hotpath
func (pn *planNode) fill() {
	if bn := pn.chain.BN; bn != nil {
		for c := range pn.inv {
			pn.inv[c] = bn.evalInv(c)
		}
	}
	c := pn.layer.(*Conv2D)
	if pn.packed == nil {
		pn.packed = tensor.New(tensor.PackedLen(c.OutC, c.InC*c.K*c.K)).Data
	}
	tensor.PackA(pn.packed, c.Weight.W.Data, c.OutC, c.InC*c.K*c.K)
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

// buf returns the memory a step's or an alias's output with slot s lies in
// for the sample in flight: s in the lane's region, or without a slot — the
// graph output — the sample's rows of the output batch.
//
//skynet:hotpath
func (l *lane) buf(s Slot) []float32 {
	if s.Off < 0 {
		return l.out
	}
	return l.arena[s.Off : s.Off+s.Size]
}

// Map returns node j's output for the sample in flight (the sample itself
// for GraphInput).
//
//skynet:hotpath
func (l *lane) Map(j int) []float32 {
	if j == GraphInput {
		return l.x
	}
	return l.buf(l.c.p.nodes[j].Slot)
}
