package quant

import (
	"fmt"
	"math"

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
// recognize — or that the caller forces via ExportConfig.ForceFloat — runs
// its original float layer between dequantize/quantize shims, so a partial
// lowering is always available.
//
// Determinism: every integer kernel accumulates exactly (no float
// reassociation), requantization is elementwise, and the float fallback
// layers are the graph's own (already bitwise deterministic) layers, so a
// QuantizedModel produces bitwise identical outputs for any GOMAXPROCS,
// matching the float path's contract.

// qact is one node's output activation in the quantized engine. Exactly one
// of codes/f is set by the producer; the other representation is
// materialized lazily on demand and cached for the remaining consumers.
// Conversion buffers persist across Forward calls, so steady-state
// inference allocates nothing.
type qact struct {
	scale   float32
	shape   []int
	codes   []int8
	f       *tensor.Tensor
	codeBuf []int8
	fBuf    *tensor.Tensor
}

func (a *qact) numel() int {
	n := 1
	for _, d := range a.shape {
		n *= d
	}
	return n
}

func (a *qact) setShape(dims ...int) {
	a.shape = append(a.shape[:0], dims...)
}

// asCodes returns the activation as int8 codes at a.scale, quantizing a
// float-produced activation on first demand.
func (a *qact) asCodes() []int8 {
	if a.codes != nil {
		return a.codes
	}
	n := a.numel()
	if cap(a.codeBuf) < n {
		a.codeBuf = make([]int8, n)
	}
	buf := a.codeBuf[:n]
	quantizeInto(buf, a.f.Data, a.scale)
	a.codes = buf
	return buf
}

// asFloat returns the activation as a float tensor, dequantizing codes on
// first demand.
func (a *qact) asFloat() *tensor.Tensor {
	if a.f != nil {
		return a.f
	}
	if a.fBuf == nil || a.fBuf.Len() != a.numel() {
		a.fBuf = tensor.New(a.shape...)
	} else if !shapeMatches(a.fBuf, a.shape) {
		a.fBuf = a.fBuf.Reshape(a.shape...)
	}
	dequantizeInto(a.fBuf.Data, a.codes, a.scale)
	a.f = a.fBuf
	return a.f
}

// quantizeInto writes codes = clamp(rne(src/scale), -127, 127).
//
//skynet:hotpath
func quantizeInto(dst []int8, src []float32, scale float32) {
	inv := 1 / float64(scale)
	for i, v := range src {
		r := math.RoundToEven(float64(v) * inv)
		switch {
		case math.IsNaN(r):
			dst[i] = 0
		case r > 127:
			dst[i] = 127
		case r < -127:
			dst[i] = -127
		default:
			dst[i] = int8(r)
		}
	}
}

// dequantizeInto writes dst = float32(codes) · scale.
//
//skynet:hotpath
func dequantizeInto(dst []float32, src []int8, scale float32) {
	for i, c := range src {
		dst[i] = float32(c) * scale
	}
}

// qnode is one executable unit of the quantized engine. Units are stored at
// the index of the last graph node they cover (a fused conv+BN+act unit
// occupies the activation node's slot; the covered conv and BN slots stay
// nil and are skipped).
type qnode interface {
	forward()
}

// QuantizedModel is the int8 lowering of an nn.Graph. It implements
// detect.Model (Forward ignores train: the engine is inference-only).
// Like nn.Graph, a QuantizedModel is not safe for concurrent Forward calls;
// the serving layer already serializes inference on one executor stage.
type QuantizedModel struct {
	nodes  []qnode
	acts   []*qact
	in     qact
	output int

	int8Units  int
	floatUnits int
	fusedNodes int
}

// Stats reports the lowering outcome: units running in real int8, units
// running as float fallback, and how many graph nodes were fused away into
// a preceding int8 unit (folded BN and activation nodes).
func (m *QuantizedModel) Stats() (int8Units, floatUnits, fusedNodes int) {
	return m.int8Units, m.floatUnits, m.fusedNodes
}

// Forward runs the quantized graph on x ([N,C,H,W]) and returns the float
// output of the final layer. The train flag is ignored.
func (m *QuantizedModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	_ = train
	m.in.codes = nil
	m.in.f = x
	m.in.setShape(x.Shape()...)
	for _, a := range m.acts {
		a.codes, a.f = nil, nil
	}
	for _, n := range m.nodes {
		if n != nil {
			n.forward()
		}
	}
	return m.acts[m.output].asFloat()
}

// ExportConfig configures the int8 lowering.
type ExportConfig struct {
	// Calib selects the activation calibrator (default min-max).
	Calib CalibConfig
	// ForceFloat lists graph node indices that must keep running their
	// original float layer (escape hatch for layers that quantize badly).
	ForceFloat []int
}

// Export calibrates g on the given batches and lowers it into a
// QuantizedModel. The graph is not modified; the quantized model holds
// integer copies of the weights (with batch-norm folded into the conv
// scales) and references the original layers only for float-fallback nodes.
func Export(g *nn.Graph, calib []*tensor.Tensor, cfg ExportConfig) (*QuantizedModel, error) {
	if len(g.Nodes) == 0 {
		return nil, fmt.Errorf("quant: cannot export an empty graph")
	}
	scales, err := CalibrateActivations(g, calib, cfg.Calib)
	if err != nil {
		return nil, err
	}
	nNodes := len(g.Nodes)
	output := nNodes - 1
	if g.Output >= 0 {
		output = g.Output
	}
	force := make([]bool, nNodes)
	for _, i := range cfg.ForceFloat {
		if i < 0 || i >= nNodes {
			return nil, fmt.Errorf("quant: ForceFloat index %d out of range", i)
		}
		force[i] = true
	}
	// Where conv → BN → act chains may fuse is the float inference plan's
	// rule too; a forced-float node never joins a chain.
	chains := nn.ConvChains(g, force)

	m := &QuantizedModel{
		nodes:  make([]qnode, nNodes),
		acts:   make([]*qact, nNodes),
		output: output,
	}
	for i := range m.acts {
		m.acts[i] = &qact{}
	}
	m.in.scale = scales.Input
	actScale := make([]float32, nNodes)
	actOf := func(j int) *qact {
		if j == nn.GraphInput {
			return &m.in
		}
		return m.acts[j]
	}
	scaleOf := func(j int) float32 {
		if j == nn.GraphInput {
			return scales.Input
		}
		return actScale[j]
	}
	fallback := func(i int) {
		ins := make([]*qact, len(g.Nodes[i].Inputs))
		for k, j := range g.Nodes[i].Inputs {
			ins[k] = actOf(j)
		}
		actScale[i] = scales.Node[i]
		m.acts[i].scale = actScale[i]
		m.nodes[i] = &qfallback{out: m.acts[i], ins: ins, layer: g.Nodes[i].Layer}
		m.floatUnits++
	}
	fused := make([]bool, nNodes)

	for i, node := range g.Nodes {
		if fused[i] {
			continue
		}
		if force[i] {
			fallback(i)
			continue
		}
		inIdx := nn.GraphInput
		if len(node.Inputs) > 0 {
			inIdx = node.Inputs[0]
		}
		switch l := node.Layer.(type) {
		case *nn.Conv2D:
			// Fuse the canonical SkyNet tail: conv [→ BN] [→ ReLU/ReLU6].
			ch := chains[i]
			last := ch.Last(i)
			for _, f := range ch.Tail {
				fused[f] = true
				m.fusedNodes++
			}
			inScale := scaleOf(inIdx)
			dequant := last == output
			outScale := scales.Node[last]
			actScale[last] = outScale
			m.acts[last].scale = outScale
			m.nodes[last] = newQConv(l, ch.BN, ch.Act, actOf(inIdx), m.acts[last], inScale, outScale, dequant)
			m.int8Units++
		case *nn.DWConv3:
			inScale := scaleOf(inIdx)
			outScale := scales.Node[i]
			actScale[i] = outScale
			m.acts[i].scale = outScale
			m.nodes[i] = newQDW(l, actOf(inIdx), m.acts[i], inScale, outScale)
			m.int8Units++
		case *nn.ReLU:
			inScale := scaleOf(inIdx)
			actScale[i] = inScale // clamping codes preserves the grid
			m.acts[i].scale = inScale
			m.nodes[i] = &qrelu{out: m.acts[i], in: actOf(inIdx), hi: capCode(l.Cap, inScale)}
			m.int8Units++
		case *nn.MaxPool:
			inScale := scaleOf(inIdx)
			actScale[i] = inScale
			m.acts[i].scale = inScale
			m.nodes[i] = &qpool{out: m.acts[i], in: actOf(inIdx), k: l.K}
			m.int8Units++
		case *nn.Reorg:
			inScale := scaleOf(inIdx)
			actScale[i] = inScale
			m.acts[i].scale = inScale
			m.nodes[i] = &qreorg{out: m.acts[i], in: actOf(inIdx), s: l.S}
			m.int8Units++
		case *nn.Concat:
			// The output grid is the widest input grid: inputs on that grid
			// copy through exactly, narrower inputs requantize with
			// mult = inScale/outScale ≤ 1.
			ins := make([]*qact, len(node.Inputs))
			mults := make([]float32, len(node.Inputs))
			var outScale float32
			for k, j := range node.Inputs {
				ins[k] = actOf(j)
				if s := scaleOf(j); s > outScale {
					outScale = s
				}
			}
			for k, j := range node.Inputs {
				mults[k] = scaleOf(j) / outScale
			}
			actScale[i] = outScale
			m.acts[i].scale = outScale
			m.nodes[i] = &qconcat{out: m.acts[i], ins: ins, mults: mults}
			m.int8Units++
		default:
			fallback(i)
		}
	}
	return m, nil
}

// capCode converts a float activation cap to its code-domain clamp.
func capCode(cap float32, scale float32) int8 {
	if cap <= 0 {
		return 127
	}
	c := math.RoundToEven(float64(cap) / float64(scale))
	if c > 127 || math.IsNaN(c) {
		return 127
	}
	if c < 0 {
		return 0
	}
	return int8(c)
}

// shapeMatches reports whether t already has exactly the given dims.
func shapeMatches(t *tensor.Tensor, dims []int) bool {
	if t.Rank() != len(dims) {
		return false
	}
	for i, d := range dims {
		if t.Dim(i) != d {
			return false
		}
	}
	return true
}

// growI8 returns buf resized to n, reallocating only on growth.
func growI8(buf []int8, n int) []int8 {
	if cap(buf) < n {
		return make([]int8, n)
	}
	return buf[:n]
}

// qconv is a fused [conv → BN → act] unit running on the int8 GEMM. The
// final graph layer instead carries the dequantize epilogue and produces
// float directly for the detection head.
type qconv struct {
	out, in                   *qact
	w                         []int8 // [outC, inC·k·k]
	ep                        tensor.Int8Epilogue
	deqMult                   []float32
	dequant                   bool
	inC, outC, k, stride, pad int
	col                       []int8
	outCodes                  []int8
}

func newQConv(c *nn.Conv2D, bn *nn.BatchNorm, act *nn.ReLU, in, out *qact, inScale, outScale float32, dequant bool) *qconv {
	cols := c.InC * c.K * c.K
	// Fold BN into the conv weights and bias:
	//   BN(conv(x)+b) = (γ/σ)·conv(x) + (γ/σ)·b + β − γμ/σ,  σ = sqrt(var+ε)
	folded := make([]float32, c.OutC*cols)
	copy(folded, c.Weight.W.Data)
	bias := make([]float64, c.OutC)
	if c.UseBias {
		for oc := 0; oc < c.OutC; oc++ {
			bias[oc] = float64(c.Bias.W.Data[oc])
		}
	}
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
	codes, wScales := QuantizeWeightsPerChannel(folded, c.OutC, cols)
	q := &qconv{
		out: out, in: in, w: codes, dequant: dequant,
		inC: c.InC, outC: c.OutC, k: c.K, stride: c.Stride, pad: c.Pad,
	}
	biasQ := make([]int32, c.OutC)
	mult := make([]float32, c.OutC)
	for oc := 0; oc < c.OutC; oc++ {
		accScale := float64(inScale) * float64(wScales[oc])
		biasQ[oc] = roundToInt32(bias[oc] / accScale)
		if dequant {
			mult[oc] = float32(accScale)
		} else {
			mult[oc] = float32(accScale / float64(outScale))
		}
	}
	if dequant {
		q.deqMult = mult
		q.ep.Bias = biasQ
		return q
	}
	q.ep = tensor.Int8Epilogue{Bias: biasQ, Mult: mult, Lo: -127, Hi: 127}
	if act != nil {
		q.ep.Lo = 0
		q.ep.Hi = capCode(act.Cap, outScale)
	}
	return q
}

func roundToInt32(v float64) int32 {
	r := math.RoundToEven(v)
	if r > math.MaxInt32 {
		return math.MaxInt32
	}
	if r < math.MinInt32 {
		return math.MinInt32
	}
	return int32(r)
}

func (q *qconv) forward() {
	n, c, h, w := q.in.shape[0], q.in.shape[1], q.in.shape[2], q.in.shape[3]
	oh := tensor.ConvOut(h, q.k, q.stride, q.pad)
	ow := tensor.ConvOut(w, q.k, q.stride, q.pad)
	cols := oh * ow
	kk := q.inC * q.k * q.k
	src := q.in.asCodes()
	q.out.setShape(n, q.outC, oh, ow)
	var outF []float32
	if q.dequant {
		if q.out.fBuf == nil || q.out.fBuf.Len() != n*q.outC*cols {
			q.out.fBuf = tensor.New(n, q.outC, oh, ow)
		} else if !shapeMatches(q.out.fBuf, q.out.shape) {
			q.out.fBuf = q.out.fBuf.Reshape(n, q.outC, oh, ow)
		}
		outF = q.out.fBuf.Data
	} else {
		q.outCodes = growI8(q.outCodes, n*q.outC*cols)
	}
	direct := q.k == 1 && q.stride == 1 && q.pad == 0
	if !direct {
		q.col = growI8(q.col, kk*cols)
	}
	for img := 0; img < n; img++ {
		b := src[img*c*h*w : (img+1)*c*h*w]
		if !direct {
			tensor.Int8Im2Col(q.col, b, c, h, w, q.k, q.k, q.stride, q.pad)
			b = q.col
		}
		if q.dequant {
			dst := outF[img*q.outC*cols : (img+1)*q.outC*cols]
			tensor.Int8GEMMDequantInto(dst, q.w, b, q.outC, cols, kk, q.ep.Bias, q.deqMult)
		} else {
			dst := q.outCodes[img*q.outC*cols : (img+1)*q.outC*cols]
			tensor.Int8GEMMRequantInto(dst, q.w, b, q.outC, cols, kk, q.ep)
		}
	}
	if q.dequant {
		q.out.f = q.out.fBuf
	} else {
		q.out.codes = q.outCodes
	}
}

// qdw is a quantized depthwise 3×3 convolution (stride 1, same padding,
// matching nn.DWConv3), computed directly on code planes.
type qdw struct {
	out, in  *qact
	w        []int8 // [C, k, k]
	bias     []int32
	mult     []float32
	c, k     int
	outCodes []int8
}

func newQDW(d *nn.DWConv3, in, out *qact, inScale, outScale float32) *qdw {
	kk := d.K * d.K
	codes, wScales := QuantizeWeightsPerChannel(d.Weight.W.Data, d.C, kk)
	q := &qdw{out: out, in: in, w: codes, c: d.C, k: d.K,
		bias: make([]int32, d.C), mult: make([]float32, d.C)}
	for ch := 0; ch < d.C; ch++ {
		accScale := float64(inScale) * float64(wScales[ch])
		if d.UseBias {
			q.bias[ch] = roundToInt32(float64(d.Bias.W.Data[ch]) / accScale)
		}
		q.mult[ch] = float32(accScale / float64(outScale))
	}
	return q
}

func (q *qdw) forward() {
	n, c, h, w := q.in.shape[0], q.in.shape[1], q.in.shape[2], q.in.shape[3]
	src := q.in.asCodes()
	q.outCodes = growI8(q.outCodes, n*c*h*w)
	kk := q.k * q.k
	pad := q.k / 2
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * h * w
			dwPlaneInt8(q.outCodes[base:base+h*w], src[base:base+h*w],
				q.w[ch*kk:(ch+1)*kk], h, w, q.k, pad, q.bias[ch], q.mult[ch])
		}
	}
	q.out.setShape(n, c, h, w)
	q.out.codes = q.outCodes
}

// dwPlaneInt8 convolves one code plane with one k×k kernel (stride 1),
// accumulating exactly in int32 and requantizing each output.
//
//skynet:hotpath
func dwPlaneInt8(dst, src, w []int8, h, wd, k, pad int, bias int32, mult float32) {
	for oy := 0; oy < h; oy++ {
		for ox := 0; ox < wd; ox++ {
			acc := bias
			for ky := 0; ky < k; ky++ {
				iy := oy - pad + ky
				if iy < 0 || iy >= h {
					continue
				}
				for kx := 0; kx < k; kx++ {
					ix := ox - pad + kx
					if ix < 0 || ix >= wd {
						continue
					}
					acc += int32(w[ky*k+kx]) * int32(src[iy*wd+ix])
				}
			}
			dst[oy*wd+ox] = tensor.RequantizeRNE(acc, mult, -127, 127)
		}
	}
}

// qrelu clamps codes to [0, hi]; the grid is unchanged, so this is exact.
type qrelu struct {
	out, in  *qact
	hi       int8
	outCodes []int8
}

func (q *qrelu) forward() {
	src := q.in.asCodes()
	q.outCodes = growI8(q.outCodes, len(src))
	clampCodes(q.outCodes, src, q.hi)
	q.out.setShape(q.in.shape...)
	q.out.codes = q.outCodes
}

//skynet:hotpath
func clampCodes(dst, src []int8, hi int8) {
	for i, v := range src {
		if v < 0 {
			v = 0
		} else if v > hi {
			v = hi
		}
		dst[i] = v
	}
}

// qpool is max pooling on codes: scales are positive, so the code-domain
// max is the value-domain max and the result is exact on the same grid.
type qpool struct {
	out, in  *qact
	k        int
	outCodes []int8
}

func (q *qpool) forward() {
	n, c, h, w := q.in.shape[0], q.in.shape[1], q.in.shape[2], q.in.shape[3]
	oh, ow := h/q.k, w/q.k
	src := q.in.asCodes()
	q.outCodes = growI8(q.outCodes, n*c*oh*ow)
	maxPoolCodes(q.outCodes, src, n*c, h, w, q.k)
	q.out.setShape(n, c, oh, ow)
	q.out.codes = q.outCodes
}

//skynet:hotpath
func maxPoolCodes(dst, src []int8, planes, h, w, k int) {
	oh, ow := h/k, w/k
	oi := 0
	for p := 0; p < planes; p++ {
		base := p * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := src[base+oy*k*w+ox*k]
				for ky := 0; ky < k; ky++ {
					row := base + (oy*k+ky)*w + ox*k
					for kx := 0; kx < k; kx++ {
						if v := src[row+kx]; v > best {
							best = v
						}
					}
				}
				dst[oi] = best
				oi++
			}
		}
	}
}

// qreorg is the space-to-depth shuffle on codes (pure data movement).
type qreorg struct {
	out, in  *qact
	s        int
	outCodes []int8
}

func (q *qreorg) forward() {
	n, c, h, w := q.in.shape[0], q.in.shape[1], q.in.shape[2], q.in.shape[3]
	oh, ow := h/q.s, w/q.s
	src := q.in.asCodes()
	q.outCodes = growI8(q.outCodes, n*c*q.s*q.s*oh*ow)
	reorgCodes(q.outCodes, src, n, c, h, w, q.s)
	q.out.setShape(n, c*q.s*q.s, oh, ow)
	q.out.codes = q.outCodes
}

//skynet:hotpath
func reorgCodes(dst, src []int8, n, c, h, w, s int) {
	oh, ow := h/s, w/s
	for i := 0; i < n; i++ {
		for dy := 0; dy < s; dy++ {
			for dx := 0; dx < s; dx++ {
				for ch := 0; ch < c; ch++ {
					oc := (dy*s+dx)*c + ch
					for y := 0; y < oh; y++ {
						srcBase := ((i*c+ch)*h+(y*s+dy))*w + dx
						dstBase := ((i*c*s*s+oc)*oh + y) * ow
						for xo := 0; xo < ow; xo++ {
							dst[dstBase+xo] = src[srcBase+xo*s]
						}
					}
				}
			}
		}
	}
}

// qconcat concatenates along channels, requantizing every input onto the
// output grid (mult == 1 for the widest input, which therefore copies
// through bit-exactly).
type qconcat struct {
	out      *qact
	ins      []*qact
	mults    []float32
	outCodes []int8
}

func (q *qconcat) forward() {
	n, h, w := q.ins[0].shape[0], q.ins[0].shape[2], q.ins[0].shape[3]
	totalC := 0
	for _, in := range q.ins {
		totalC += in.shape[1]
	}
	q.outCodes = growI8(q.outCodes, n*totalC*h*w)
	dstC := 0
	for k, in := range q.ins {
		src := in.asCodes()
		c := in.shape[1]
		for img := 0; img < n; img++ {
			dst := q.outCodes[(img*totalC+dstC)*h*w : (img*totalC+dstC+c)*h*w]
			rescaleCodes(dst, src[img*c*h*w:(img+1)*c*h*w], q.mults[k])
		}
		dstC += c
	}
	q.out.setShape(n, totalC, h, w)
	q.out.codes = q.outCodes
}

//skynet:hotpath
func rescaleCodes(dst, src []int8, mult float32) {
	for i, v := range src {
		dst[i] = tensor.RequantizeRNE(int32(v), mult, -127, 127)
	}
}

// qfallback runs the original float layer between dequantize/quantize
// shims. Its output carries the node's calibrated scale so downstream int8
// consumers can quantize it lazily.
type qfallback struct {
	out   *qact
	ins   []*qact
	layer nn.Layer
	fins  []*tensor.Tensor
}

func (q *qfallback) forward() {
	if cap(q.fins) < len(q.ins) {
		q.fins = make([]*tensor.Tensor, len(q.ins))
	}
	q.fins = q.fins[:len(q.ins)]
	for i, in := range q.ins {
		q.fins[i] = in.asFloat()
	}
	out := q.layer.Forward(q.fins, false)
	q.out.setShape(out.Shape()...)
	q.out.f = out
}
