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
// whose accumulator could leave int32 — runs its original float layer
// between dequantize/quantize shims, so a partial lowering is always
// available.
//
// The engine owns arithmetic only: integer weights, epilogues, scales. What
// runs when, every shape, and where each feature map lives come from the
// float engine's planner — the inference plan, Bundle steps and laid-out
// Concats included — whose steps it executes on a []int8 arena at the plan's
// own offsets, a code where the float executor keeps a float32. It runs a
// batch the way that executor does, by its rule and through its code
// (nn.LanesFor, nn.RunLanes): as lanes, each worker walking its own samples
// through the steps on a region of the arena one sample large.
//
// Determinism: every integer kernel accumulates exactly (no float
// reassociation; Export enforces tensor.Int8AccumulatorFits),
// requantization is elementwise, and the float fallback layers are the
// graph's own (already bitwise deterministic) layers, so a QuantizedModel
// produces bitwise identical outputs for any GOMAXPROCS, matching the float
// path's contract.

// value is what the plan fixes of one tensor — a node's output or the graph
// input: its grid, its shape and where its codes lie.
type value struct {
	scale     float32
	dims      []int // shape of one sample: dims[0] is 1
	off, size int   // the code slot within a lane's region of the arena: [off, off+size)
	asFloat   bool  // a fallback unit reads it: every lane keeps a buffer to dequantize it to
}

// laneValue is one tensor of the sample a lane has in flight, in the forms
// its consumers ask for. Its producer leaves codes (in the lane's region) or
// floats; the other form is made on first demand and kept for the remaining
// consumers.
type laneValue struct {
	coded bool           // the slot holds this sample's codes
	f     []float32      // this sample's float form, once produced or asked for
	fbuf  []float32      // where f is dequantized to, kept across forwards
	view  *tensor.Tensor // f as a fallback unit's argument, kept across forwards and repointed
}

// quantizeInto writes codes = clamp(rne(src/scale), -127, 127).
//
//skynet:hotpath
func quantizeInto(dst []int8, src []float32, scale float32) {
	inv := 1 / float64(scale)
	for i := tensor.QuantizeRow(dst, src, inv); i < len(src); i++ {
		dst[i] = clampCode(math.RoundToEven(float64(src[i]) * inv))
	}
}

// clampCode converts a rounded value to a code: saturating, NaN to 0.
//
//skynet:hotpath
func clampCode(r float64) int8 {
	if math.IsNaN(r) {
		return 0
	}
	return int8(min(max(r, -127), 127))
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
// detect.Model (Forward ignores train: the engine is inference-only).
// Like nn.Graph, a QuantizedModel is not safe for concurrent Forward calls;
// the serving layer gives each inference worker a model of its own.
type QuantizedModel struct {
	g        *nn.Graph // read for its structure when a new input shape needs a plan
	separate []bool    // the mask that plan is compiled under (Export)
	units    []unit    // by node; nil where a node is computed inside another's unit
	vals     []value   // by node + 1; vals[0] is the graph input
	output   int

	// The plan for the sample shape of vals[0].dims: its steps (compile), the
	// arena a sample needs — the plan's own plus the graph input's and output's
	// — and the scratch its units need.
	steps                   []*nn.Step
	outShape                []int // the output's; Forward sets its batch dimension
	perSample               int
	colLen, bandLen, rowLen int // qconv's im2col matrix, a Bundle step's code band, a depth-wise accumulator row
	maxInputs               int

	arena []int8    // the codes of the forward in flight: one sample's per lane
	lanes []*qlane  // lanes[i] owns region i of arena
	x, y  []float32 // the input and output batches of the forward in flight; nil between forwards
	bands []int8    // the code bands of the Bundle steps, worker i's the i-th
	rows  []int32   // the accumulator rows of the depth-wise ones, likewise

	int8Units, floatUnits, fusedNodes int // Stats
}

// qlane is one worker's share of a forward, as nn's lane is: the sample it
// has in flight, its region of the arena and its scratch.
type qlane struct {
	m      *QuantizedModel
	arena  []int8
	vals   []laneValue      // by node + 1, as m.vals
	sample int              // which of the batch is in flight
	col    []int8           // im2col of the image, for the k×k convolutions
	ins    []*tensor.Tensor // a fallback unit's argument list
	index  int              // which lane, so which worker's scratch on a leaf walk
	split  *nn.Step         // the step in flight whose work nn.RunBands deals (Band)
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
// nn.LanesFor(N) lanes; a model with a float fallback unit runs on one, its
// layers keeping state.
func (m *QuantizedModel) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n := x.Dim(0)
	m.planFor(x)
	lanes := 1
	if m.floatUnits == 0 {
		lanes = nn.LanesFor(n)
	}
	m.prepare(lanes)
	m.outShape[0] = n
	out := tensor.New(m.outShape...)
	m.x, m.y = x.Data, out.Data
	nn.RunLanes(laneWalker{m}, n, lanes)
	m.x, m.y = nil, nil // neither batch is the engine's to keep
	return out
}

// planFor makes m.steps the plan for x, compiling one when the sample shape
// differs from the last forward's.
func (m *QuantizedModel) planFor(x *tensor.Tensor) {
	in := &m.vals[0]
	if len(in.dims) == x.Rank() && slices.Equal(in.dims[1:], x.Shape()[1:]) {
		return
	}
	m.steps, m.perSample = m.compile(x.Shape())
	in.dims, in.off, in.size = slices.Clone(x.Shape()), -1, x.Len()/x.Dim(0)
	in.dims[0] = 1
	m.colLen, m.bandLen, m.rowLen, m.maxInputs = 0, 0, 0, 0
	for _, l := range m.lanes {
		for j := range l.vals {
			l.vals[j].view = nil // of the last plan's shape
		}
	}
	for _, s := range m.steps {
		v := m.val(s.Out)
		v.dims, v.off, v.size = s.Dims, s.Off, s.Size
		m.maxInputs = max(m.maxInputs, len(s.Inputs))
		switch u := m.units[s.Out].(type) {
		case *qconv:
			if !u.direct() {
				m.colLen = max(m.colLen, m.val(s.Inputs[0]).dims[1]*u.k*u.k*s.Dims[2]*s.Dims[3])
			}
		case *qdw:
			m.rowLen = max(m.rowLen, s.Dims[3])
		case *qbundle:
			m.bandLen, m.rowLen = max(m.bandLen, s.Band.Len), max(m.rowLen, tensor.ConvOut(m.val(s.Inputs[0]).dims[3], u.dw.k, u.dw.stride, u.dw.pad))
			if r := s.Band.Reorg; r >= 0 { // the pooled map's height and width
				v, hw := m.val(r), s.Dims[2]*s.Dims[3]
				v.dims, v.off, v.size = []int{1, s.Band.ReorgSize / hw, s.Dims[2], s.Dims[3]}, s.Band.ReorgOff, s.Band.ReorgSize
			}
		case *qfallback:
			for _, j := range s.Inputs {
				m.val(j).asFloat = true
			}
		}
	}
	// The float plan keeps the graph input and output outside its arena. Their
	// codes, where a unit asks for them, get a slot past the plan's, for the
	// whole walk.
	m.outShape = slices.Clone(m.val(m.output).dims)
	for _, j := range [...]int{nn.GraphInput, m.output} {
		v := m.val(j)
		v.off = m.perSample
		m.perSample += v.size
	}
}

// prepare readies the arena, one region per lane, the lanes with their
// scratch for the plan, and the workers'. All grow with the lanes and the
// plan, never with the batch.
func (m *QuantizedModel) prepare(lanes int) {
	if need := m.perSample * lanes; len(m.arena) < need {
		m.arena = nil // not live while its replacement is allocated, as in nn's Plan.prepare
		m.arena = make([]int8, need)
	}
	if nw := nn.LanesFor(math.MaxInt); len(m.bands) < nw*m.bandLen || len(m.rows) < nw*m.rowLen {
		m.bands, m.rows = make([]int8, nw*m.bandLen), make([]int32, nw*m.rowLen)
	}
	for len(m.lanes) < lanes {
		m.lanes = append(m.lanes, &qlane{m: m, index: len(m.lanes), vals: make([]laneValue, len(m.vals))})
	}
	for i, l := range m.lanes[:lanes] {
		l.arena = m.arena[i*m.perSample : (i+1)*m.perSample]
		if len(l.col) < m.colLen {
			l.col = make([]int8, m.colLen)
		}
		if len(l.ins) < m.maxInputs {
			l.ins = make([]*tensor.Tensor, m.maxInputs)
		}
		for j, v := range m.vals {
			if v.asFloat && len(l.vals[j].fbuf) != v.size {
				l.vals[j].fbuf = make([]float32, v.size)
			}
		}
	}
}

// laneWalker is a model's forward in flight, as nn.RunLanes drives it.
type laneWalker struct{ m *QuantizedModel }

// WalkSample takes sample i of the forward in flight through the steps on
// lane li and leaves its output in row i of m.y.
//
//skynet:hotpath
func (w laneWalker) WalkSample(li, i int, leaf bool) {
	m, l := w.m, w.m.lanes[li]
	for j := range l.vals {
		l.vals[j].coded, l.vals[j].f = false, nil
	}
	l.sample = i
	in := m.val(nn.GraphInput)
	l.vals[0].f = m.x[i*in.size : (i+1)*in.size]
	for _, s := range m.steps {
		m.units[s.Out].run(l, s, leaf)
		if poisonReleased {
			for _, j := range s.Frees {
				buf := l.slot(j)
				for q := range buf {
					buf[q] = -128
				}
			}
		}
	}
	// A unit that produced the output as floats of its own (a fallback) did
	// not write the row; every other way of producing it did.
	if row, f := l.outRow(), l.float(m.output); &f[0] != &row[0] {
		copy(row, f)
	}
	l.vals[0].f = nil
}

// val returns the value of node j (nn.GraphInput for the graph's input).
//
//skynet:hotpath
func (m *QuantizedModel) val(j int) *value { return &m.vals[j+1] }

// outRow returns the row of the output batch the sample in flight fills.
//
//skynet:hotpath
func (l *qlane) outRow() []float32 {
	size := l.m.val(l.m.output).size
	return l.m.y[l.sample*size : (l.sample+1)*size]
}

// slot returns value j's code slot in the lane's region.
//
//skynet:hotpath
func (l *qlane) slot(j int) []int8 {
	v := l.m.val(j)
	return l.arena[v.off : v.off+v.size]
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
		quantizeInto(buf, v.f, l.m.val(j).scale)
		v.coded = true
	}
	return buf
}

// floatDest makes the memory it returns node j's float form for this sample,
// for its producer to fill: the sample's row of the output batch for the
// output node, else the lane's buffer for a value a fallback unit reads.
//
//skynet:hotpath
func (l *qlane) floatDest(j int) []float32 {
	v := &l.vals[j+1]
	if v.f = v.fbuf; j == l.m.output {
		v.f = l.outRow()
	}
	return v.f
}

// float returns value j's float form, dequantizing codes on first demand.
//
//skynet:hotpath
func (l *qlane) float(j int) []float32 {
	v := &l.vals[j+1]
	if v.f == nil {
		dequantizeInto(l.floatDest(j), l.slot(j), l.m.val(j).scale)
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
// QuantizedModel. The graph is not modified, except that the arena its
// calibration forwards used is released; the quantized model holds
// integer copies of the weights (with batch-norm folded into the conv
// scales), runs the original layers only for float-fallback nodes, and
// otherwise reads the graph's node list — which must not change — only to
// plan a forward at a new input shape. A convolution whose accumulator could
// leave int32 (tensor.Int8AccumulatorFits: more than 133 144 taps, or a bias
// — batch norm folded in — beyond int32 in accumulator units) is lowered as
// a float fallback unit, fused tail included, and shows as one in Stats.
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
	scales, err := CalibrateActivations(g, calib, force)
	// Calibration ran the float plan on g's arena; the engine runs no float
	// plan, and keeps g for its structure only.
	g.ReleaseArena()
	if err != nil {
		return nil, err
	}
	m := &QuantizedModel{g: g, separate: slices.Clone(force), output: len(g.Nodes) - 1}
	if g.Output >= 0 {
		m.output = g.Output
	}
	m.lower(calib[0].Shape(), scales, force)
	return m, nil
}

// compile returns the steps of the plan for samples of the given shape, each
// followed by the Concats laid out after it, and the arena a sample needs.
func (m *QuantizedModel) compile(shape []int) (steps []*nn.Step, perSample int) {
	plan, perSample := nn.Compile(m.g, shape, m.separate).Steps()
	for i := range plan {
		steps = append(steps, &plan[i])
		for j := range plan[i].Laid {
			steps = append(steps, &plan[i].Laid[j])
		}
	}
	return steps, perSample
}

// lower installs a unit on every step of the plan compiled under m.separate.
// A Bundle step one of whose convolutions would break the accumulator bound
// is split: its depth-wise node is marked, the plan lowered again.
func (m *QuantizedModel) lower(shape []int, scales ActivationScales, force []bool) {
	g := m.g
	steps, _ := m.compile(shape)
	m.units, m.vals = make([]unit, len(g.Nodes)), make([]value, len(g.Nodes)+1)
	m.int8Units, m.floatUnits, m.fusedNodes = 0, 0, 0
	m.vals[0].scale = scales.Input
	// install makes u the unit of step s, its output on the given grid.
	install := func(s *nn.Step, u unit, scale float32) {
		m.units[s.Out], m.val(s.Out).scale = u, scale
		if _, float := u.(*qfallback); float {
			m.floatUnits++
		} else {
			m.int8Units++
		}
	}
	// fallback runs the step's layers — a node's, then its fused tail's — in float.
	fallback := func(s *nn.Step) {
		q := &qfallback{layers: []nn.Layer{g.Nodes[s.Node].Layer}}
		for _, t := range s.Chain.Tail {
			q.layers = append(q.layers, g.Nodes[t].Layer)
		}
		install(s, q, scales.Node[s.Out])
	}
	for _, s := range steps {
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
			if q := newQConv(l, s.Chain.BN, s.Chain.Act, inScale, scales.Node[s.Out], dequant); q != nil {
				install(s, q, scales.Node[s.Out])
				m.fusedNodes += len(s.Chain.Tail)
			} else {
				fallback(s)
			}
		case *nn.DWConv3:
			dw := newQDW(l, inScale, scales.Node[s.Node])
			if b := s.Band; b != nil {
				// The grids of qdw's and qconv's; a pool and a reorder keep the chain end's.
				last := s.Chain.Last(b.Conv)
				pw := newQConv(g.Nodes[b.Conv].Layer.(*nn.Conv2D), s.Chain.BN, s.Chain.Act, scales.Node[s.Node], scales.Node[last], s.Out == m.output && s.Chain.Act == nil)
				if dw == nil || pw == nil {
					m.separate[s.Node] = true
					m.lower(shape, scales, force)
					return
				}
				q := &qbundle{dw: dw, pw: pw, pool: b.Pool >= 0, k: 1}
				install(s, q, scales.Node[last])
				m.fusedNodes += 1 + len(s.Chain.Tail) // the 1×1 convolution and its chain, a pool, a reorder
				if q.pool {
					q.k, m.fusedNodes = g.Nodes[b.Pool].Layer.(*nn.MaxPool).K, m.fusedNodes+1
				}
				if b.Reorg >= 0 {
					m.val(b.Reorg).scale, m.fusedNodes = scales.Node[last], m.fusedNodes+1
				}
			} else if dw != nil {
				install(s, dw, scales.Node[s.Out])
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
}

// capCode converts a float activation cap to its code-domain clamp.
func capCode(cap float32, scale float32) int8 {
	if c := math.RoundToEven(float64(cap) / float64(scale)); cap > 0 && c <= 127 {
		return int8(c)
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
	in := l.m.val(s.Inputs[0]).dims
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
	switch s := l.split; u := l.m.units[s.Out].(type) {
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
	in := l.m.val(s.Inputs[0]).dims
	h, w, outH, outW := in[2], in[3], s.Dims[2], s.Dims[3]
	for ch := lo; ch < hi; ch++ {
		q.rows(dst[ch*outH*outW:(ch+1)*outH*outW], src[ch*h*w:(ch+1)*h*w], l.m.rows[wk*l.m.rowLen:][:outW], h, w, ch, 0)
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
	dw   *qdw
	pw   *qconv // dequantizing where the chain ends the graph
	pool bool
	k    int // the pool's window; 1 without a pool
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
	l.run(s, tensor.ConvOut(l.m.val(s.Inputs[0]).dims[2], q.dw.k, q.dw.stride, q.dw.pad)/q.k, q.k, s.Band.Rows, leaf)
}

// band takes depth-wise output rows [r0, r0+rows) of step s to its outputs,
// on worker w's band and accumulator row.
//
//skynet:hotpath
func (q *qbundle) band(l *qlane, s *nn.Step, w, r0, rows int) {
	in, m, c, outC, k := l.m.val(s.Inputs[0]).dims, l.m, q.dw.c, q.pw.outC, q.k
	h, wd := in[2], in[3]
	outH, outW := tensor.ConvOut(h, q.dw.k, q.dw.stride, q.dw.pad), tensor.ConvOut(wd, q.dw.k, q.dw.stride, q.dw.pad)
	cols, n, src := outH*outW, rows*outW, l.slot(s.Inputs[0])
	band := m.bands[w*m.bandLen : (w+1)*m.bandLen]
	dwb := band[:c*n]
	for ch := 0; ch < c; ch++ {
		q.dw.rows(dwb[ch*n:(ch+1)*n], src[ch*h*wd:(ch+1)*h*wd], m.rows[w*m.rowLen:][:outW], h, wd, ch, r0)
	}
	ep := q.pw.ep
	ep.Leaf = true // a band runs inside a lane or a lone lane's split, both on the GEMM pool
	if at, end := r0*outW, r0*outW+(outC-1)*cols+n; !q.pool {
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
	in := l.m.val(s.Inputs[0]).dims
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
	in := l.m.val(s.Inputs[0]).dims
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

// qfallback runs original float layers — a node's, then those of the tail
// fused onto it — between dequantize/quantize shims, a sample at a time. Its
// output carries the node's calibrated scale so downstream int8 consumers can
// quantize it lazily; a fallback consumer gets the floats themselves. The
// layers keep state of their own, which is why a model with one runs on one
// lane.
type qfallback struct{ layers []nn.Layer }

//skynet:hotpath
func (q *qfallback) run(l *qlane, s *nn.Step, _ bool) {
	ins := l.ins[:len(s.Inputs)]
	for k, j := range s.Inputs {
		ins[k] = l.tensor(j)
	}
	out := q.layers[0].Forward(ins, false)
	for _, layer := range q.layers[1:] {
		ins[0] = out
		out = layer.Forward(ins[:1], false)
	}
	clear(ins)
	l.vals[s.Out+1].f = out.Data
}

// tensor returns value j's float form as a tensor, a view the lane keeps and
// repoints.
//
//skynet:hotpath
func (l *qlane) tensor(j int) *tensor.Tensor {
	v, f := &l.vals[j+1], l.float(j)
	if v.view == nil {
		v.view = tensor.FromSlice(f, l.m.val(j).dims...)
	}
	v.view.Data = f
	return v.view
}
