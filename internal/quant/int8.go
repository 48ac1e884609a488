package quant

import (
	"fmt"
	"math"
	"slices"

	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// This file lowers a trained float graph into a real int8 inference engine.
// Representation: symmetric linear quantization (value ≈ code × scale,
// zero point 0) with per-tensor activation scales and per-output-channel
// weight scales. Pointwise and depthwise convolutions run on the packed
// int8×int8→int32 kernels in internal/tensor with batch-norm folded into
// the conv scales and the activation clamp fused into the requantize
// epilogue; max-pool, reorg and ReLU operate directly on codes (they are
// monotonic, so the code-domain result is exact); concat requantizes each
// input onto the widest input grid. Any node the lowering does not
// recognize — or that the caller forces via ExportConfig.ForceFloat, or
// whose accumulator could leave int32 — runs as the float plan's own step
// between dequantize/quantize shims, so a partial lowering is always
// available.
//
// The engine owns arithmetic only: integer weights, epilogues, scales. What
// runs when, every shape, and where each feature map lives are the float
// engine's plan — Bundle steps and laid-out Concats included —, from an
// executor's nn.PlanCache: the engine walks its one step list on a []int8 arena,
// a code where the float executor keeps a float32. It runs a batch the way
// that executor does, by its rule and through its code (nn.LanesFor,
// nn.RunLanes): as lanes, each worker walking its own samples through the
// steps on a region of the arena one sample large.
//
// Determinism: every integer kernel accumulates exactly (no float
// reassociation; Export enforces tensor.Int8AccumulatorFits),
// requantization is elementwise, and a float fallback is the float plan's own
// (already bitwise deterministic) step, so a QuantizedModel
// produces bitwise identical outputs for any GOMAXPROCS, matching the float
// path's contract.

// value is what the lowering fixes of one tensor — a node's output or the
// graph input — beside its slot in the plan: its grid, and how it is read.
type value struct {
	scale   float32
	asFloat bool // a fallback unit reads or writes it: every lane keeps a float buffer for it
}

// laneValue is one tensor of the sample a lane has in flight, in the forms
// its consumers ask for. Its producer leaves codes (in the lane's region) or
// floats; the other form is made on first demand and kept for the remaining
// consumers.
type laneValue struct {
	coded bool      // the slot holds this sample's codes
	f     []float32 // this sample's float form, once produced or asked for
	fbuf  []float32 // where f is produced or dequantized to, kept across forwards
}

// quantizeInto writes codes = clamp(rne(src/scale), -127, 127).
//
//skynet:hotpath
func quantizeInto(dst []int8, src []float32, scale float32) {
	inv := 1 / float64(scale)
	for i := tensor.QuantizeRow(dst, src, inv); i < len(src); i++ {
		dst[i] = tensor.CodeRNE(float64(src[i]) * inv)
	}
}

// dequantizeInto writes dst = float32(codes) · scale.
//
//skynet:hotpath
func dequantizeInto(dst []float32, src []int8, scale float32) {
	for i := tensor.DequantizeRow(dst, src, scale); i < len(src); i++ {
		dst[i] = float32(src[i]) * scale
	}
}

// unit is the arithmetic of one plan step on one sample: it reads the step's
// inputs through the lane's codes or float and leaves the step's output
// through its dest or floatDest. Units are stored at the node whose output
// they write (a fused conv+BN+act unit at the activation's index, as
// nn.Step.Out), and hold no operand of a forward: lanes run them side by
// side.
type unit interface {
	run(l *qlane, s *nn.Step, leaf bool)
}

// QuantizedModel is the int8 lowering of an nn.Graph. It implements
// detect.Model (Forward ignores train: the engine is inference-only). What
// the lowering fixed is read-only; all a forward writes is its executor's
// (qexec, off a free list), so forwards are safe for concurrent use.
type QuantizedModel struct {
	separate []bool  // the mask the plans are compiled under
	units    []unit  // by node; nil where a node is computed inside another's unit
	vals     []value // by node + 1; vals[0] is the graph input
	output   int

	int8Units, floatUnits, fusedNodes int // Stats

	free tensor.FreeList[qexec] // the executors no forward is running on: at first the one calibration and the lowering used
}

// qexec is the executor of one forward at a time: its plans (the first
// executor's are calibration's), its last forward's plan (use) and steps, the
// arena a sample needs (the plan's, then the input's and output's codes), the
// output's shape and the most scratch any plan has needed: qconv's im2col
// matrix, a code band, a depth-wise accumulator row, a fallback step's float
// im2col matrix.
type qexec struct {
	m                                *QuantizedModel
	plans                            *nn.PlanCache
	plan                             *nn.Plan
	steps                            []nn.Step
	perSample                        int
	outShape                         []int
	colLen, bandLen, rowLen, fcolLen int

	arena []int8      // the codes of the forward in flight: one sample's per lane
	lanes []*qlane    // lanes[i] owns region i of arena
	x     []float32   // the input batch of the forward in flight; nil between forwards
	outs  [][]float32 // the forward in flight's output, a row per sample; cleared between forwards
	bands []int8      // the code bands of the Bundle steps, worker i's the i-th
	rows  []int32     // the accumulator rows of the depth-wise ones, likewise
}

// qlane is one worker's share of a forward, as nn's lane is: the sample it
// has in flight, its region of the arena and its scratch. It is the nn.Maps a
// fallback unit's float step reads its inputs from.
type qlane struct {
	e      *qexec
	arena  []int8
	vals   []laneValue // by node + 1, as the model's vals
	sample int         // which of the batch is in flight
	col    []int8      // im2col of the image, for the k×k convolutions
	fcol   []float32   // im2col of the image, for a fallback's k×k convolution
	index  int         // which lane, so which worker's scratch on a leaf walk
	split  *nn.Step    // the step in flight whose work nn.RunBands deals (Band)
}

// poisonReleased makes Forward overwrite every code slot with -128 — never
// a valid code — as soon as the plan says nothing reads it any more. Tests
// set it: a slot handed out while still live then shows in the output.
var poisonReleased bool

// Stats reports the lowering outcome: units running in real int8, units
// running as float fallback, and how many graph nodes were fused away into
// a preceding int8 unit (folded BN and activation nodes).
func (m *QuantizedModel) Stats() (int8Units, floatUnits, fusedNodes int) {
	return m.int8Units, m.floatUnits, m.fusedNodes
}

// Forward runs the quantized graph on x ([N,C,H,W]) and returns the float
// output of the final layer; train is ignored. The returned tensor is the
// caller's, as nn.Graph.Forward's is: the lanes write its rows in flight, and
// the engine holds no reference to it, nor to x, once Forward returns. A warm
// Forward allocates that tensor and nothing else. The samples go to
// nn.LanesFor(N) lanes, float fallback units or none.
func (m *QuantizedModel) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	e := m.free.Get()
	e.use(e.plans.For(x.Shape()))
	e.outShape[0] = x.Dim(0)
	out := tensor.New(e.outShape...)
	e.run(nn.SampleRows(e.outs, out.Data, x.Dim(0)), x)
	m.free.Put(e)
	return out
}

// ForwardSamples is Forward writing sample i's output into outs[i]
// (nn.SampleOuts): once the executor and outs fit, it allocates nothing.
func (m *QuantizedModel) ForwardSamples(outs []*tensor.Tensor, x *tensor.Tensor) {
	e := m.free.Get()
	e.use(e.plans.For(x.Shape()))
	e.run(nn.SampleOuts(e.outs, outs, x.Dim(0), e.plan.Slot(m.output).Dims), x)
	m.free.Put(e)
}

// run takes x through the plan in use, sample i's output into outs[i].
func (e *qexec) run(outs [][]float32, x *tensor.Tensor) {
	lanes := nn.LanesFor(x.Dim(0))
	e.prepare(lanes)
	e.x, e.outs = x.Data, outs
	nn.RunLanes(e, x.Dim(0), lanes)
	clear(e.outs)
	e.x = nil // neither batch is the engine's to keep
}

// use makes p the plan of the forward about to run, and grows the scratch
// its units need to the most any plan has needed.
func (e *qexec) use(p *nn.Plan) {
	if p == e.plan {
		return
	}
	e.plan = p
	var planLen int
	e.steps, planLen = p.Steps()
	in, out := p.Slot(nn.GraphInput), p.Slot(e.m.output)
	e.perSample = planLen + in.Size + out.Size
	e.outShape = append(e.outShape[:0], out.Dims...)
	for i := range e.steps {
		s := &e.steps[i]
		switch u := e.m.units[s.Out].(type) {
		case *qconv:
			if !u.direct() {
				e.colLen = max(e.colLen, e.dims(s.Inputs[0])[1]*u.k*u.k*s.Dims[2]*s.Dims[3])
			}
		case *qdw:
			e.rowLen = max(e.rowLen, s.Dims[3])
		case *qbundle:
			e.bandLen, e.rowLen = max(e.bandLen, s.Band.Len), max(e.rowLen, tensor.ConvOut(e.dims(s.Inputs[0])[3], u.dw.k, u.dw.stride, u.dw.pad))
		}
	}
}

// prepare readies the plan's fallback steps (nn.Plan.Load) and their float
// im2col length, the arena, one region per lane, the lanes with their scratch
// for the plan, and the workers'. All grow with the lanes and the plans,
// never with the batch.
func (e *qexec) prepare(lanes int) {
	for i := range e.steps {
		if _, float := e.m.units[e.steps[i].Out].(*qfallback); float {
			e.plan.Load(&e.steps[i])
			e.fcolLen = max(e.fcolLen, e.plan.ColLen(&e.steps[i]))
		}
	}
	if need := e.perSample * lanes; len(e.arena) < need {
		e.arena = nil // not live while its replacement is allocated, as in nn's Plan.prepare
		e.arena = make([]int8, need)
	}
	if nw := nn.LanesFor(math.MaxInt); len(e.bands) < nw*e.bandLen || len(e.rows) < nw*e.rowLen {
		e.bands, e.rows = make([]int8, nw*e.bandLen), make([]int32, nw*e.rowLen)
	}
	for len(e.lanes) < lanes {
		e.lanes = append(e.lanes, &qlane{e: e, index: len(e.lanes), vals: make([]laneValue, len(e.m.vals))})
	}
	for i, l := range e.lanes[:lanes] {
		l.arena = e.arena[i*e.perSample : (i+1)*e.perSample]
		if len(l.col) < e.colLen {
			l.col = make([]int8, e.colLen)
		}
		if len(l.fcol) < e.fcolLen {
			l.fcol = make([]float32, e.fcolLen)
		}
		for j, v := range e.m.vals {
			if size := e.plan.Slot(j - 1).Size; v.asFloat && len(l.vals[j].fbuf) < size {
				l.vals[j].fbuf = make([]float32, size)
			}
		}
	}
}

// WalkSample takes sample i of the forward in flight through the steps on
// lane li and leaves its output in e.outs[i], for nn.RunLanes.
//
//skynet:hotpath
func (e *qexec) WalkSample(li, i int, leaf bool) {
	l := e.lanes[li]
	for j := range l.vals {
		l.vals[j].coded, l.vals[j].f = false, nil
	}
	l.sample = i
	in := e.plan.Slot(nn.GraphInput).Size
	l.vals[0].f = e.x[i*in : (i+1)*in]
	for k := range e.steps {
		s := &e.steps[k]
		e.m.units[s.Out].run(l, s, leaf)
		if poisonReleased {
			for _, j := range s.Frees {
				buf := l.slot(j)
				for q := range buf {
					buf[q] = -128
				}
			}
		}
	}
	l.Map(e.m.output) // the output's float form is the sample's output: dequantized there if it is codes
	l.vals[0].f = nil
}

// val returns the value of node j (nn.GraphInput for the graph's input).
//
//skynet:hotpath
func (m *QuantizedModel) val(j int) *value { return &m.vals[j+1] }

// dims returns the shape of one sample of node j's output (of the graph
// input for nn.GraphInput) on the plan in flight.
//
//skynet:hotpath
func (e *qexec) dims(j int) []int { return e.plan.Slot(j).Dims }

// slot returns value j's code slot in the lane's region: the plan's, or for
// the graph input and output, which have none there, theirs past it.
//
//skynet:hotpath
func (l *qlane) slot(j int) []int8 {
	p := l.e.plan
	s := p.Slot(j)
	if s.Off < 0 {
		s.Off = len(l.arena) - p.Slot(l.e.m.output).Size // the output's, last
		if j == nn.GraphInput {
			s.Off -= s.Size
		}
	}
	return l.arena[s.Off : s.Off+s.Size]
}

// dest returns node j's code slot for its producer to fill.
//
//skynet:hotpath
func (l *qlane) dest(j int) []int8 {
	l.vals[j+1].coded = true
	return l.slot(j)
}

// codes returns value j as int8 codes at its scale, quantizing a
// float-produced value into its slot on first demand.
//
//skynet:hotpath
func (l *qlane) codes(j int) []int8 {
	v, buf := &l.vals[j+1], l.slot(j)
	if !v.coded {
		quantizeInto(buf, v.f, l.e.m.val(j).scale)
		v.coded = true
	}
	return buf
}

// floatDest makes the memory it returns node j's float form for this sample,
// for its producer to fill: the sample's output for the output node, else the
// lane's buffer for a value a fallback unit reads or writes.
//
//skynet:hotpath
func (l *qlane) floatDest(j int) []float32 {
	v := &l.vals[j+1]
	if j == l.e.m.output {
		v.f = l.e.outs[l.sample]
	} else {
		v.f = v.fbuf[:l.e.plan.Slot(j).Size]
	}
	return v.f
}

// Map returns value j's float form, dequantizing codes on first demand.
//
//skynet:hotpath
func (l *qlane) Map(j int) []float32 {
	v := &l.vals[j+1]
	if v.f == nil {
		dequantizeInto(l.floatDest(j), l.slot(j), l.e.m.val(j).scale)
	}
	return v.f
}

// ExportConfig configures the int8 lowering.
type ExportConfig struct {
	// ForceFloat lists graph node indices that must keep running their
	// original float layer (escape hatch for layers that quantize badly).
	ForceFloat []int
}

// Export calibrates g on the given batches and lowers it into a
// QuantizedModel. Calibration, the lowering and the first executor's forwards
// share one nn.PlanCache, so Export compiles a sample shape once. The graph is
// not modified; the model holds integer copies of the weights (with batch-norm
// folded into the conv scales), reads the original layers only in the
// float-fallback steps, and otherwise reads the graph's node list — which must
// not change — only to plan a forward at a new input shape. A convolution
// whose accumulator could leave int32 (tensor.Int8AccumulatorFits: more than
// 133 144 taps, or a bias — batch norm folded in — beyond int32 in accumulator
// units) is lowered as a float fallback unit, fused tail included, and shows
// as one in Stats.
func Export(g *nn.Graph, calib []*tensor.Tensor, cfg ExportConfig) (*QuantizedModel, error) {
	if len(g.Nodes) == 0 {
		return nil, fmt.Errorf("quant: cannot export an empty graph")
	}
	force := make([]bool, len(g.Nodes))
	for _, i := range cfg.ForceFloat {
		if i < 0 || i >= len(g.Nodes) {
			return nil, fmt.Errorf("quant: ForceFloat index %d out of range", i)
		}
		force[i] = true
	}
	m := &QuantizedModel{separate: slices.Clone(force), output: len(g.Nodes) - 1}
	if g.Output >= 0 {
		m.output = g.Output
	}
	plans := nn.NewPlanCache(g, force)
	clips, err := CalibrateActivations(plans, calib)
	// Calibration ran the plans on the cache's float arena; the engine runs them on codes.
	plans.Release()
	if err != nil {
		return nil, err
	}
	m.lower(plans, calib[0].Shape(), clips, force)
	return m, nil
}

// lower installs a unit on every step of the plan of plans, a cache under
// m.separate, for samples of the given shape, each map on the int8 grid its
// clip spans, and makes plans the model's first executor's. A Bundle step one
// of whose convolutions would break the accumulator bound is split: its
// depth-wise node is marked, and the lowering starts over on a cache compiled
// under the new mask.
func (m *QuantizedModel) lower(plans *nn.PlanCache, shape []int, clips ActivationClips, force []bool) {
	g := plans.Graph()
	steps, _ := plans.For(shape).Steps()
	m.units, m.vals = make([]unit, len(g.Nodes)), make([]value, len(g.Nodes)+1)
	m.int8Units, m.floatUnits, m.fusedNodes = 0, 0, 0
	m.vals[0].scale = grid(8, clips.Input).Scale
	scaleOf := func(j int) float32 { return grid(8, clips.Node[j]).Scale }
	// install makes u the unit of step s, its output on the given grid.
	install := func(s *nn.Step, u unit, scale float32) {
		m.units[s.Out], m.val(s.Out).scale = u, scale
		if _, float := u.(*qfallback); float {
			m.floatUnits++
		} else {
			m.int8Units++
		}
	}
	// fallback runs the step — a node, and its fused tail — in float.
	fallback := func(s *nn.Step) {
		install(s, &qfallback{}, scaleOf(s.Out))
		for _, j := range append([]int{s.Out}, s.Inputs...) {
			m.val(j).asFloat = true
		}
	}
	for i := range steps {
		s := &steps[i]
		if force[s.Node] {
			fallback(s)
			continue
		}
		inScale := m.val(s.Inputs[0]).scale
		switch l := g.Nodes[s.Node].Layer.(type) {
		case *nn.Conv2D:
			// The step's chain is the canonical SkyNet tail, conv [→ BN] [→
			// ReLU/ReLU6], in one unit. The conv that ends the graph hands
			// floats to the detection head itself; behind an activation the
			// codes are clamped first and Forward dequantizes them.
			dequant := s.Out == m.output && s.Chain.Act == nil
			if q := newQConv(l, s.Chain.BN, s.Chain.Act, inScale, scaleOf(s.Out), dequant); q != nil {
				install(s, q, scaleOf(s.Out))
				m.fusedNodes += len(s.Chain.Tail)
			} else {
				fallback(s)
			}
		case *nn.DWConv3:
			dw := newQDW(l, inScale, scaleOf(s.Node))
			if b := s.Band; b != nil {
				// The grids of qdw's and qconv's; a pool and a reorder keep the chain end's.
				last := s.Chain.Last(b.Conv)
				pw := newQConv(g.Nodes[b.Conv].Layer.(*nn.Conv2D), s.Chain.BN, s.Chain.Act, scaleOf(s.Node), scaleOf(last), s.Out == m.output && s.Chain.Act == nil)
				if dw == nil || pw == nil {
					m.separate[s.Node] = true
					m.lower(nn.NewPlanCache(g, m.separate), shape, clips, force)
					return
				}
				install(s, &qbundle{dw: dw, pw: pw}, scaleOf(last))
				m.fusedNodes += 1 + len(s.Chain.Tail) // the 1×1 convolution and its chain, a pool, a reorder
				if b.Pool >= 0 {
					m.fusedNodes++
				}
				if b.Reorg >= 0 {
					m.val(b.Reorg).scale, m.fusedNodes = scaleOf(last), m.fusedNodes+1
				}
			} else if dw != nil {
				install(s, dw, scaleOf(s.Out))
			} else {
				fallback(s)
			}
		case *nn.ReLU:
			// Clamping codes preserves the grid.
			install(s, &qrelu{hi: capCode(l.Cap, inScale)}, inScale)
		case *nn.MaxPool:
			install(s, &qpool{k: l.K}, inScale)
		case *nn.Reorg:
			install(s, &qreorg{s: l.S}, inScale)
		case *nn.Concat:
			// The output grid is the widest input grid: inputs on that grid
			// copy through exactly, narrower inputs requantize with
			// mult = inScale/outScale ≤ 1.
			var outScale float32
			for _, j := range s.Inputs {
				outScale = max(outScale, m.val(j).scale)
			}
			q := &qconcat{mults: make([]float32, len(s.Inputs))}
			for k, j := range s.Inputs {
				q.mults[k] = m.val(j).scale / outScale
			}
			install(s, q, outScale)
		default:
			fallback(s)
		}
	}
	m.free.Alloc = func() *qexec { return &qexec{m: m, plans: nn.NewPlanCache(g, m.separate)} }
	m.free.Put(&qexec{m: m, plans: plans})
}

// capCode converts a float activation cap to its code-domain clamp: 127
// for none.
func capCode(cap float32, scale float32) int8 {
	if cap > 0 {
		return tensor.CodeRNE(float64(cap) / float64(scale))
	}
	return 127
}

// floatBias returns a layer's n per-channel biases (zeros without one).
func floatBias(p *nn.Param, n int) []float64 {
	bias := make([]float64, n)
	if p != nil {
		for i := range bias {
			bias[i] = float64(p.W.Data[i])
		}
	}
	return bias
}

// quantizeUnit quantizes a unit's [len(bias), cols] weights per row and
// builds its epilogue: the biases in accumulator units (inScale·wScale) and
// the per-row requantize multipliers inScale·wScale/outScale. ok is false
// when a cols-tap accumulator starting from one of the biases could leave
// int32: the unit must then not run on the integer kernels.
func quantizeUnit(w []float32, bias []float64, cols int, inScale, outScale float32) (codes []int8, ep tensor.Int8Epilogue, ok bool) {
	codes, wScales := QuantizeWeightsPerChannel(w, len(bias), cols)
	ep = tensor.Int8Epilogue{Bias: make([]int32, len(bias)), Mult: make([]float32, len(bias)), Lo: -127, Hi: 127}
	for i, b := range bias {
		accScale := float64(inScale) * float64(wScales[i])
		r := math.RoundToEven(b / accScale)
		if !tensor.Int8AccumulatorFits(cols, math.Abs(r)) { // also false for NaN
			return nil, ep, false
		}
		ep.Bias[i], ep.Mult[i] = int32(r), float32(accScale/float64(outScale))
	}
	return codes, ep, true
}

// qconv is a fused [conv → BN → act] unit running on the int8 GEMM. The
// final graph layer instead carries the dequantize epilogue (ep.Mult is then
// the accumulator scale, and the clamp is unused) and produces float
// directly for the detection head.
type qconv struct {
	w                    []int8 // [outC, inC·k·k]
	ep                   tensor.Int8Epilogue
	dequant              bool
	outC, k, stride, pad int
}

// newQConv returns nil when the unit would break the accumulator bound.
func newQConv(c *nn.Conv2D, bn *nn.BatchNorm, act *nn.ReLU, inScale, outScale float32, dequant bool) *qconv {
	cols := c.InC * c.K * c.K
	// Fold BN into the conv weights and bias:
	//   BN(conv(x)+b) = (γ/σ)·conv(x) + (γ/σ)·b + β − γμ/σ,  σ = sqrt(var+ε)
	folded := slices.Clone(c.Weight.W.Data[:c.OutC*cols])
	bias := floatBias(c.Bias, c.OutC)
	if bn != nil {
		for oc := 0; oc < c.OutC; oc++ {
			sigma := math.Sqrt(float64(bn.RunVar.Data[oc]) + float64(bn.Eps))
			gs := float64(bn.Gamma.W.Data[oc]) / sigma
			for p := 0; p < cols; p++ {
				folded[oc*cols+p] = float32(float64(folded[oc*cols+p]) * gs)
			}
			bias[oc] = gs*bias[oc] + float64(bn.Beta.W.Data[oc]) - gs*float64(bn.RunMean.Data[oc])
		}
	}
	if dequant {
		outScale = 1 // the multipliers are the accumulator scales themselves
	}
	q := &qconv{dequant: dequant, outC: c.OutC, k: c.K, stride: c.Stride, pad: c.Pad}
	var ok bool
	if q.w, q.ep, ok = quantizeUnit(folded, bias, cols, inScale, outScale); !ok {
		return nil
	}
	q.ep.Packed = tensor.PackInt8A(q.w, c.OutC, cols) // the codes in GEMM panels, packed once
	if act != nil {
		q.ep.Lo, q.ep.Hi = 0, capCode(act.Cap, outScale)
	}
	return q
}

// direct reports whether an image is its own im2col matrix.
//
//skynet:hotpath
func (q *qconv) direct() bool { return q.k == 1 && q.stride == 1 && q.pad == 0 }

//skynet:hotpath
func (q *qconv) run(l *qlane, s *nn.Step, leaf bool) {
	in := l.e.dims(s.Inputs[0])
	cols, kk := s.Dims[2]*s.Dims[3], in[1]*q.k*q.k
	b := l.codes(s.Inputs[0])
	if !q.direct() {
		tensor.Im2ColInto(l.col, b, in[1], in[2], in[3], q.k, q.k, q.stride, q.pad)
		b = l.col[:kk*cols]
	}
	ep := q.ep
	ep.Leaf = leaf // one lane among several multiplies on its own goroutine
	if q.dequant {
		tensor.Int8GEMMDequantInto(l.floatDest(s.Out), q.w, b, q.outC, cols, kk, ep)
	} else {
		tensor.Int8GEMMRequantInto(l.dest(s.Out), q.w, b, q.outC, cols, kk, ep)
	}
}

// planeUnit is a unit whose work on a sample splits by channel plane.
type planeUnit interface {
	// planes computes planes [lo, hi) of step s on worker w: of src, the input
	// sample's codes, into dst, the output sample's.
	planes(l *qlane, s *nn.Step, dst, src []int8, w, lo, hi int)
}

// planes runs the planes of step s, a plane a unit and a worker's share one
// band (integer results do not depend on the split).
//
//skynet:hotpath
func (l *qlane) planes(s *nn.Step, leaf bool) {
	l.dest(s.Out)
	l.run(s, s.Dims[1], 1, s.Dims[1], leaf)
}

// run deals the n units of step s, k rows each, in bands of rows rows, as
// nn.RunBands does the float engine's: the lane is the Bands, and its workers
// read the step's operands off it. The input's codes are made first.
//
//skynet:hotpath
func (l *qlane) run(s *nn.Step, n, k, rows int, leaf bool) {
	l.codes(s.Inputs[0])
	l.split = s
	nn.RunBands(l, n, k, rows, l.index, nn.LanesFor(math.MaxInt), leaf)
}

// Band computes rows [r0, r0+rows) of the step in flight on worker w.
//
//skynet:hotpath
func (l *qlane) Band(w, r0, rows int) {
	switch s := l.split; u := l.e.m.units[s.Out].(type) {
	case *qbundle:
		u.band(l, s, w, r0, rows)
	case planeUnit:
		u.planes(l, s, l.slot(s.Out), l.slot(s.Inputs[0]), w, r0, r0+rows)
	}
}

// qdw is a quantized depth-wise convolution (nn.DWConv3, its stride and
// padding included), computed directly on code planes.
type qdw struct {
	w                 []int8 // [C, k, k]
	ep                tensor.Int8Epilogue
	c, k, stride, pad int
}

//skynet:hotpath
func (q *qdw) run(l *qlane, s *nn.Step, leaf bool) { l.planes(s, leaf) }

// newQDW returns nil when the unit would break the accumulator bound.
func newQDW(d *nn.DWConv3, inScale, outScale float32) *qdw {
	q := &qdw{c: d.C, k: d.K, stride: d.Stride, pad: d.Pad}
	var ok bool
	if q.w, q.ep, ok = quantizeUnit(d.Weight.W.Data, floatBias(d.Bias, d.C), d.K*d.K, inScale, outScale); !ok {
		return nil
	}
	return q
}

// planes convolves channels [lo, hi) of the sample on worker wk's
// accumulator row.
//
//skynet:hotpath
func (q *qdw) planes(l *qlane, s *nn.Step, dst, src []int8, wk, lo, hi int) {
	in := l.e.dims(s.Inputs[0])
	h, w, outH, outW := in[2], in[3], s.Dims[2], s.Dims[3]
	for ch := lo; ch < hi; ch++ {
		q.rows(dst[ch*outH*outW:(ch+1)*outH*outW], src[ch*h*w:(ch+1)*h*w], l.e.rows[wk*l.e.rowLen:][:outW], h, w, ch, 0)
	}
}

// rows computes output rows oy, oy+1, … of channel ch's plane, as many as dst
// holds, from its input plane [h,w] on the float engine's loop (nn.DWRow),
// each summed exactly in acc, one row long, and requantized as it is stored.
//
//skynet:hotpath
func (q *qdw) rows(dst, src []int8, acc []int32, h, w, ch, oy int) {
	for r := 0; r*len(acc) < len(dst); r++ {
		nn.DWRow(acc, src, q.w[ch*q.k*q.k:(ch+1)*q.k*q.k], q.ep.Bias[ch], h, w, q.k, q.stride, q.pad, oy+r)
		tensor.RequantizeRow(dst[r*len(acc):(r+1)*len(acc)], acc, 0, q.ep.Mult[ch], -127, 127)
	}
}

// qbundle is a Bundle step (nn.Band) on codes, band by band: depth-wise rows
// into a code band, the 1×1 product as a leaf — into the output's columns, or
// under a pool behind the rows —, the pool and the reorder on the band. Every
// code is the one qdw, qconv, qpool and qreorg compute.
type qbundle struct {
	dw *qdw
	pw *qconv // dequantizing where the chain ends the graph
}

//skynet:hotpath
func (q *qbundle) run(l *qlane, s *nn.Step, leaf bool) {
	if q.pw.dequant {
		l.floatDest(s.Out)
	} else {
		l.dest(s.Out)
	}
	if r := s.Band.Reorg; r >= 0 {
		l.dest(r)
	}
	k := s.Band.K
	l.run(s, tensor.ConvOut(l.e.dims(s.Inputs[0])[2], q.dw.k, q.dw.stride, q.dw.pad)/k, k, s.Band.Rows, leaf)
}

// band takes depth-wise output rows [r0, r0+rows) of step s to its outputs,
// on worker w's band and accumulator row.
//
//skynet:hotpath
func (q *qbundle) band(l *qlane, s *nn.Step, w, r0, rows int) {
	in, e, c, outC, k := l.e.dims(s.Inputs[0]), l.e, q.dw.c, q.pw.outC, s.Band.K
	h, wd := in[2], in[3]
	outH, outW := tensor.ConvOut(h, q.dw.k, q.dw.stride, q.dw.pad), tensor.ConvOut(wd, q.dw.k, q.dw.stride, q.dw.pad)
	cols, n, src := outH*outW, rows*outW, l.slot(s.Inputs[0])
	band := e.bands[w*e.bandLen : (w+1)*e.bandLen]
	dwb := band[:c*n]
	for ch := 0; ch < c; ch++ {
		q.dw.rows(dwb[ch*n:(ch+1)*n], src[ch*h*wd:(ch+1)*h*wd], e.rows[w*e.rowLen:][:outW], h, wd, ch, r0)
	}
	ep := q.pw.ep
	ep.Leaf = true // a band runs inside a lane or a lone lane's split, both on the GEMM pool
	if at, end := r0*outW, r0*outW+(outC-1)*cols+n; s.Band.Pool < 0 {
		ep.Ldc = cols // straight into these rows' columns of the output
		if q.pw.dequant {
			tensor.Int8GEMMDequantInto(l.vals[s.Out+1].f[at:end], q.pw.w, dwb, outC, n, c, ep)
		} else {
			tensor.Int8GEMMRequantInto(l.slot(s.Out)[at:end], q.pw.w, dwb, outC, n, c, ep)
		}
		return
	}
	pwb, dst := band[len(dwb):len(dwb)+outC*n], l.slot(s.Out)
	tensor.Int8GEMMRequantInto(pwb, q.pw.w, dwb, outC, n, c, ep)
	oh, ow := outH/k, outW/k
	for oc := 0; oc < outC; oc++ {
		at := (oc*oh + r0/k) * ow
		maxPoolCodes(dst[at:at+rows/k*ow], pwb[oc*n:(oc+1)*n], 1, rows, outW, k)
	}
	if r := s.Band.Reorg; r >= 0 {
		nn.ReorgRows(l.slot(r), pwb, outC, outH, outW, k, r0, rows)
	}
}

// qrelu clamps codes to [0, hi]: a requantization that keeps the grid, so
// it is exact.
type qrelu struct{ hi int8 }

//skynet:hotpath
func (q *qrelu) run(l *qlane, s *nn.Step, _ bool) {
	tensor.RescaleCodes(l.dest(s.Out), l.codes(s.Inputs[0]), 1, 0, q.hi)
}

// qpool is max pooling on codes: scales are positive, so the code-domain
// max is the value-domain max and the result is exact on the same grid.
type qpool struct{ k int }

//skynet:hotpath
func (q *qpool) run(l *qlane, s *nn.Step, leaf bool) { l.planes(s, leaf) }

//skynet:hotpath
func (q *qpool) planes(l *qlane, s *nn.Step, dst, src []int8, _, lo, hi int) {
	in := l.e.dims(s.Inputs[0])
	h, w, out := in[2], in[3], s.Dims[2]*s.Dims[3]
	maxPoolCodes(dst[lo*out:hi*out], src[lo*h*w:hi*h*w], hi-lo, h, w, q.k)
}

// maxPoolCodes pools each of the [h,w] planes of src into dst; the 2×2
// pooling of SkyNet is unrolled, its leading outputs going to the vector
// kernel where there is one. The Go maxima are taken on int32: amd64 has no
// byte-wide conditional move, and on codes a branch mispredicts every other
// element.
//
//skynet:hotpath
func maxPoolCodes(dst, src []int8, planes, h, w, k int) {
	outH, outW := h/k, w/k
	for p := 0; p < planes; p++ {
		in := src[p*h*w : (p+1)*h*w]
		out := dst[p*outH*outW : (p+1)*outH*outW]
		for oy := 0; oy < outH; oy++ {
			orow := out[oy*outW : (oy+1)*outW]
			if k == 2 {
				r0, r1 := in[2*oy*w:][:2*outW], in[(2*oy+1)*w:][:2*outW]
				for ox := tensor.MaxPool2RowInt8(orow, r0, r1); ox < len(orow); ox++ {
					orow[ox] = int8(max(int32(r0[2*ox]), int32(r0[2*ox+1]), int32(r1[2*ox]), int32(r1[2*ox+1])))
				}
				continue
			}
			for ox := range orow {
				best := int32(-128)
				for ky := 0; ky < k; ky++ {
					for _, v := range in[(oy*k+ky)*w+ox*k:][:k] {
						best = max(best, int32(v))
					}
				}
				orow[ox] = int8(best)
			}
		}
	}
}

// qreorg is the space-to-depth shuffle on codes (pure data movement).
type qreorg struct{ s int }

//skynet:hotpath
func (q *qreorg) run(l *qlane, s *nn.Step, _ bool) {
	in := l.e.dims(s.Inputs[0])
	nn.ReorgInto(l.dest(s.Out), l.codes(s.Inputs[0]), 1, in[1], in[2], in[3], q.s)
}

// qconcat concatenates along channels, requantizing every input onto the
// output grid (mult == 1 for the widest input, which therefore copies
// through bit-exactly) — in place, where the Concat is laid out.
type qconcat struct{ mults []float32 }

//skynet:hotpath
func (q *qconcat) run(l *qlane, s *nn.Step, _ bool) {
	dst := l.dest(s.Out)
	at := 0 // where the next input's channels start
	for k, j := range s.Inputs {
		src := l.codes(j)
		if &src[0] != &dst[at] || q.mults[k] < 1 { // laid out, the widest input lies as it must
			tensor.RescaleCodes(dst[at:at+len(src)], src, q.mults[k], -127, 127)
		}
		at += len(src)
	}
}

// qfallback runs a step in float — the float plan's own step (nn.Plan.RunStep),
// its fused tail included — between dequantize/quantize shims. Its output
// carries the node's calibrated scale so downstream int8 consumers can
// quantize it lazily; a fallback consumer gets the floats themselves.
type qfallback struct{}

//skynet:hotpath
func (q *qfallback) run(l *qlane, s *nn.Step, leaf bool) {
	l.e.plan.RunStep(s, l.floatDest(s.Out), l, l.fcol, leaf)
}
