package main

// Per-layer probes of a traced run that are the same for every workload:
// they time the public functions of tensor, nn, quant, detect, dataset and
// backbone at the shapes the workload's own model produces. Each probe
// records spans, so the span file shows what every number was made from.

import (
	"math/rand"
	"time"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/nn"
	"skynet/internal/quant"
	"skynet/internal/tensor"
)

// layerKinds are the nn layer groups the ledger reports, in print order.
var layerKinds = []string{"dwconv3", "pwconv1", "batchnorm", "relu6", "maxpool", "reorg_concat"}

// kindOf maps a layer's Name() onto its ledger group.
func kindOf(name string) string {
	switch name {
	case "reorg", "concat":
		return "reorg_concat"
	case "relu":
		return "relu6" // the same element-wise pass, uncapped
	}
	return name
}

// walkGraph runs g one node at a time exactly as Graph.Forward does, with
// a span around every Layer.Forward, and returns the per-kind milliseconds
// of this walk plus the output.
func walkGraph(g *nn.Graph, x *tensor.Tensor, tr *tracer, parent int32) (map[string]float64, *tensor.Tensor) {
	outs := make([]*tensor.Tensor, len(g.Nodes))
	perKind := map[string]float64{}
	ins := make([]*tensor.Tensor, 0, 2)
	for i, n := range g.Nodes {
		ins = ins[:0]
		for _, j := range n.Inputs {
			if j == nn.GraphInput {
				ins = append(ins, x)
			} else {
				ins = append(ins, outs[j])
			}
		}
		kind := kindOf(n.Layer.Name())
		id := tr.begin("nn."+kind, parent, -1)
		t0 := time.Now()
		outs[i] = n.Layer.Forward(ins, false)
		perKind[kind] += ms(time.Since(t0))
		tr.end(id)
	}
	out := len(g.Nodes) - 1
	if g.Output >= 0 {
		out = g.Output
	}
	return perKind, outs[out]
}

// graphCost returns the MACs and computed bytes of g's most recent forward,
// in total and per ledger kind.
func graphCost(g *nn.Graph) (macs, bytes int64, kindMACs map[string]int64) {
	kindMACs = map[string]int64{}
	for _, n := range g.Nodes {
		if c, ok := n.Layer.(nn.Coster); ok {
			m, b := c.Cost()
			macs += m
			bytes += b
			kindMACs[kindOf(n.Layer.Name())] += m
		}
	}
	return macs, bytes, kindMACs
}

// stackBatch builds an [n,C,H,W] batch by repeating frames.
func stackBatch(frames []*tensor.Tensor, n int) *tensor.Tensor {
	samples := make([]detect.Sample, n)
	for i := range samples {
		samples[i] = detect.Sample{Image: frames[i%len(frames)]}
	}
	x, _ := detect.Batch(samples, 0, n)
	return x
}

// probeNN fills the nn.* metrics: the per-kind ledger at batch 1 and 4,
// the whole forward, the closure ratio between them, and achieved rates.
// It returns the batch-1 forward time for the layers that compare to it.
func probeNN(r *result, rc runConfig, g *nn.Graph, frames []*tensor.Tensor, tr *tracer) float64 {
	var fwd1 float64
	for _, b := range []int{1, 4} {
		suffix := "_ms"
		if b == 4 {
			suffix = "_b4_ms"
		}
		x := stackBatch(frames, b)
		n := rc.reps(5)
		if b == 4 {
			n = rc.reps(3)
		}
		g.Forward(x, false) // warm scratch at this batch size
		// A whole forward and a walk, back to back each time, so that the
		// closure ratio compares two timings of the same machine.
		var fwds, ratios []float64
		walks := map[string][]float64{}
		for i := 0; i < n; i++ {
			id := tr.begin("nn.forward", 0, -1)
			t0 := time.Now()
			g.Forward(x, false)
			fwd := ms(time.Since(t0))
			tr.end(id)
			id = tr.begin("nn.walk", 0, -1)
			perKind, _ := walkGraph(g, x, tr, id)
			tr.end(id)
			sum := 0.0
			for _, k := range layerKinds {
				walks[k] = append(walks[k], perKind[k])
				sum += perKind[k]
			}
			fwds, ratios = append(fwds, fwd), append(ratios, sum/fwd)
		}
		fwd := median(fwds)
		for _, k := range layerKinds {
			r.set("nn."+k+suffix, median(walks[k])/float64(b), "ms")
		}
		r.set("nn.forward"+suffix, fwd/float64(b), "ms")
		if b == 1 {
			fwd1 = fwd
			r.set("nn.layer_sum_ratio", median(ratios), "ratio")
			macs, bytes, kindMACs := graphCost(g)
			r.set("nn.gmacs_per_s", float64(macs)/fwd/1e6, "GMAC/s")
			r.set("nn.dwconv3_gmacs_per_s", float64(kindMACs["dwconv3"])/median(walks["dwconv3"])/1e6, "GMAC/s")
			r.set("nn.pwconv1_gmacs_per_s", float64(kindMACs["pwconv1"])/median(walks["pwconv1"])/1e6, "GMAC/s")
			r.set("nn.bytes_per_frame", float64(bytes), "B")
			// The same forward with every kernel and layer loop serial, for
			// the record: in this sandbox the default's fork-join across two
			// vCPUs buys nothing (bench/README.md, "Noise"). Everything else
			// in the benchmark runs at the shipped default, restored here.
			nnPar, tensorPar := nn.MaxParallelism, tensor.MaxParallelism
			nn.MaxParallelism, tensor.MaxParallelism = 1, 1
			r.set("nn.forward_serial_ms", timeMedian(n, func() { g.Forward(x, false) }), "ms")
			nn.MaxParallelism, tensor.MaxParallelism = nnPar, tensorPar
			r.Samples["nn_walks"] = n
		}
	}
	return fwd1
}

// gemmShape is one point-wise convolution lowered to C[M,N] = A[M,K]·B[K,N].
type gemmShape struct{ m, k, n, h, w int }

// pwShapes lists g's 1×1 convolutions at the spatial sizes of its most
// recent batch-1 forward.
func pwShapes(g *nn.Graph) []gemmShape {
	var out []gemmShape
	for i, n := range g.Nodes {
		c, ok := n.Layer.(*nn.Conv2D)
		if !ok || c.K != 1 || i >= len(g.OutShapes) || len(g.OutShapes[i]) != 4 {
			continue
		}
		h, w := g.OutShapes[i][2], g.OutShapes[i][3]
		out = append(out, gemmShape{m: c.OutC, k: c.InC, n: h * w, h: h, w: w})
	}
	return out
}

// probeTensor replays the raw kernels at the model's point-wise shapes:
// MatMulInto and Im2Col always, the int8 GEMM when the workload runs the
// int8 engine. Totals are per frame, so rates are MAC-weighted.
func probeTensor(r *result, rc runConfig, g *nn.Graph, int8Engine bool, tr *tracer) {
	rng := rand.New(rand.NewSource(7))
	var gemmMS, colMS, i8MS, flops, bytes float64
	for _, s := range pwShapes(g) {
		a, b, c := tensor.New(s.m, s.k), tensor.New(s.k, s.n), tensor.New(s.m, s.n)
		img := tensor.New(s.k, s.h, s.w)
		for i := range a.Data {
			a.Data[i] = rng.Float32() - 0.5
		}
		for i := range img.Data {
			img.Data[i] = rng.Float32()
		}
		colMS += timeMedian(rc.reps(5), func() {
			id := tr.begin("tensor.im2col", 0, -1)
			tensor.Im2Col(b, img, 1, 1, 1, 0)
			tr.end(id)
		})
		gemmMS += timeMedian(rc.reps(5), func() {
			id := tr.begin("tensor.gemm_f32", 0, -1)
			tensor.MatMulInto(c, a, b)
			tr.end(id)
		})
		flops += 2 * float64(s.m) * float64(s.k) * float64(s.n)
		bytes += 4 * float64(s.m*s.k+s.k*s.n+s.m*s.n)
		if int8Engine {
			a8, b8, d8 := make([]int8, s.m*s.k), make([]int8, s.k*s.n), make([]int8, s.m*s.n)
			for i := range a8 {
				a8[i] = int8(rng.Intn(255) - 127)
			}
			for i := range b8 {
				b8[i] = int8(rng.Intn(255) - 127)
			}
			ep := tensor.Int8Epilogue{Mult: make([]float32, s.m), Lo: -127, Hi: 127}
			for i := range ep.Mult {
				ep.Mult[i] = 1e-3
			}
			i8MS += timeMedian(rc.reps(5), func() {
				id := tr.begin("tensor.gemm_i8", 0, -1)
				tensor.Int8GEMMRequantInto(d8, a8, b8, s.m, s.n, s.k, ep)
				tr.end(id)
			})
		}
	}
	r.set("tensor.gemm_f32_ms_per_frame", gemmMS, "ms")
	r.set("tensor.gemm_f32_gflops", flops/gemmMS/1e6, "GFLOP/s")
	r.set("tensor.im2col_ms_per_frame", colMS, "ms")
	r.set("tensor.gemm_bytes_per_frame", bytes, "B")
	if int8Engine {
		r.set("tensor.gemm_i8_ms_per_frame", i8MS, "ms")
		r.set("tensor.gemm_i8_gops", flops/i8MS/1e6, "GOP/s")
	}
	if pw := r.Metrics["nn.pwconv1_ms"].Value; gemmMS > 0 {
		r.set("nn.pwconv1_vs_gemm_ratio", pw/gemmMS, "ratio")
	}
}

// probeQuant fills the quant.* metrics for an exported model.
func probeQuant(r *result, rc runConfig, g *nn.Graph, qm *quant.QuantizedModel, frames []*tensor.Tensor, exportS, f32ForwardMS float64, tr *tracer) {
	r.set("quant.export_s", exportS, "s")
	var fwd1 float64
	for _, b := range []int{1, 4} {
		x := stackBatch(frames, b)
		qm.Forward(x, false)
		n := rc.reps(5)
		if b == 4 {
			n = rc.reps(3)
		}
		fwd := timeMedian(n, func() {
			id := tr.begin("quant.forward", 0, -1)
			qm.Forward(x, false)
			tr.end(id)
		})
		if b == 1 {
			fwd1 = fwd
			r.set("quant.forward_ms", fwd, "ms")
		} else {
			r.set("quant.forward_b4_ms", fwd/float64(b), "ms")
		}
	}
	g.Forward(stackBatch(frames, 1), false) // Cost reports the last forward
	macs, _, _ := graphCost(g)
	r.set("quant.gmacs_per_s", float64(macs)/fwd1/1e6, "GMAC/s")
	r.set("quant.speedup_vs_f32", f32ForwardMS/fwd1, "ratio")
	i8, fl, fused := qm.Stats()
	r.set("quant.int8_units", float64(i8), "count")
	r.set("quant.float_fallback_units", float64(fl), "count")
	r.set("quant.fused_nodes", float64(fused), "count")
}

// directTimes is the serial cost of one frame through the detect stages,
// called directly with no executor between them.
type directTimes struct{ pre, infer, forward, post float64 }

func (d directTimes) sum() float64 { return d.pre + d.infer + d.post }

// directFrame takes one frame through Preprocess, InferBatch and
// Postprocess on the calling goroutine, with a span on each and the
// model's forward nested under InferBatch's. Nothing else may be running
// m while it does.
func directFrame(m *tracedModel, head *detect.Head, img *tensor.Tensor, tr *tracer, op int64) (directTimes, detection, error) {
	var d directTimes
	f := &detect.Frame{Image: img}
	root := tr.begin("frame.direct", 0, op)
	defer tr.end(root)

	id := tr.begin("detect.preprocess", root, op)
	t0 := time.Now()
	err := detect.Preprocess(f)
	d.pre = ms(time.Since(t0))
	tr.end(id)
	if err != nil {
		return d, detection{}, err
	}

	id = tr.begin("detect.infer_batch", root, op)
	m.parent.Store(id)
	t0 = time.Now()
	err = detect.InferBatch(m, []*detect.Frame{f})
	d.infer = ms(time.Since(t0))
	m.parent.Store(0)
	tr.end(id)
	if err != nil {
		return d, detection{}, err
	}

	id = tr.begin("detect.postprocess", root, op)
	t0 = time.Now()
	err = detect.Postprocess(head, f)
	d.post = ms(time.Since(t0))
	tr.end(id)
	return d, detection{box: f.Box, conf: f.Conf}, err
}

// probeDetect fills the detect.* stage metrics from direct frames.
// InferBatch's self time (its span minus the nested forward) is the
// stack-and-split overhead the detect layer adds around the model.
func probeDetect(r *result, rc runConfig, m *tracedModel, head *detect.Head, frames []*tensor.Tensor, tr *tracer) {
	n := rc.reps(7)
	var pre, post, stack []float64
	for i := 0; i < n; i++ {
		d, _, err := directFrame(m, head, frames[i%len(frames)], tr, int64(i))
		if err != nil {
			r.Failed++
			continue
		}
		pre, post = append(pre, d.pre), append(post, d.post)
		id := tr.begin("detect.batch_stack", 0, -1)
		t0 := time.Now()
		stackBatch(frames, 4)
		stack = append(stack, ms(time.Since(t0))/4)
		tr.end(id)
	}
	st := analyse(tr.snapshot())
	r.set("detect.preprocess_ms", median(pre), "ms")
	r.set("detect.batch_stack_ms", median(stack), "ms")
	r.set("detect.infer_overhead_ms", median(st.self["detect.infer_batch"]), "ms")
	r.set("detect.postprocess_ms", median(post), "ms")
	r.Samples["detect_direct"] = n
}

// probeInputs times the generator and the model constructor, the two
// pieces of set-up that are not the system's own start-up.
func probeInputs(r *result, rc runConfig, dcfg dataset.Config, build func() *nn.Graph, tr *tracer) {
	gen := dataset.NewGenerator(dcfg)
	r.set("dataset.render_ms_per_frame", timeMedian(rc.reps(5), func() {
		id := tr.begin("dataset.scene", 0, -1)
		gen.Scene()
		tr.end(id)
	}), "ms")
	r.set("backbone.build_ms", timeMedian(rc.reps(3), func() {
		id := tr.begin("backbone.build", 0, -1)
		build()
		tr.end(id)
	}), "ms")
}

// skynetC builds the detector the stream and serve workloads run.
func skynetC(width float64) *nn.Graph {
	cfg := backbone.DefaultConfig()
	cfg.Width = width
	return backbone.SkyNetC(rand.New(rand.NewSource(modelSeed)), cfg)
}

// modelSeed fixes the weights: the model is the system under test, the
// workload seed varies only its inputs.
const modelSeed = 1
