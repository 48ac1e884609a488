package skynet_test

// Benchmarks: one per paper table and figure, measuring the computational
// kernel that the corresponding experiment exercises. Regenerating the
// actual rows (training included) is the job of cmd/skynet-experiments;
// these testing.B benches track the performance of the machinery itself.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/bundle"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/fpga"
	"skynet/internal/hw"
	"skynet/internal/nn"
	"skynet/internal/pipeline"
	"skynet/internal/pso"
	"skynet/internal/quant"
	"skynet/internal/tensor"
	"skynet/internal/track"
)

func benchInput(rng *rand.Rand, n, c, h, w int) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	x.RandUniform(rng, 0, 1)
	return x
}

// BenchmarkTable2Backbones measures one inference of each Table 2 backbone
// (scaled width, detection head) on a 48×96 frame.
func BenchmarkTable2Backbones(b *testing.B) {
	for _, named := range backbone.Detectors() {
		b.Run(named.Name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			cfg := backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, MaxStride: 8, ReLU6: true}
			g := named.Build(rng, cfg)
			x := benchInput(rng, 1, 3, 48, 96)
			g.Forward(x, false) // warm the GEMM scratch pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Forward(x, false)
			}
		})
	}
}

// BenchmarkTable4Ablation measures one training step (forward + loss +
// backward + SGD) of each SkyNet variant.
func BenchmarkTable4Ablation(b *testing.B) {
	for _, v := range []backbone.SkyNetVariant{backbone.VariantA, backbone.VariantB, backbone.VariantC} {
		b.Run("SkyNet"+v.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			cfg := backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true}
			g := backbone.SkyNet(rng, cfg, v)
			head := detect.NewHead(nil)
			gen := dataset.NewGenerator(dataset.DefaultConfig())
			samples := gen.DetectionSet(8)
			x, gts := detect.Batch(samples, 0, 8)
			opt := nn.NewSGD(0.01, 0.9, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pred := g.Forward(x, true)
				_, grad := head.Loss(pred, gts)
				g.Backward(grad)
				opt.Step(g.Params())
			}
		})
	}
}

// BenchmarkFig2aQuantization measures classifier inference under grouped
// parameter quantization vs float32.
func BenchmarkFig2aQuantization(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := backbone.AlexNet(rng, backbone.Config{Width: 0.0625, InC: 3}, 48, 48, 12)
	x := benchInput(rng, 4, 3, 48, 48)
	b.Run("float32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Forward(x, false)
		}
	})
	b.Run("quantized", func(b *testing.B) {
		restore := quant.ApplyGroupBits(g, quant.Fig2aParamSchemes[2])
		defer restore()
		m, err := quant.Emulate(g, 8, []*tensor.Tensor{x})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Forward(x, false)
		}
	})
}

// BenchmarkFig2bBRAM measures the BRAM banking model across the Figure 2(b)
// resize-factor sweep.
func BenchmarkFig2bBRAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, factor := range []float64{1.0, 0.9, 0.8, 0.7} {
			words := int64(float64(2457600) * factor * factor)
			for bits := 12; bits <= 16; bits++ {
				fpga.FMBufferBlocks(words, bits, 16)
			}
		}
	}
}

// BenchmarkFig2cDSP measures the DSP packing model across the Figure 2(c)
// bit-width grid.
func BenchmarkFig2cDSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for w := 10; w <= 16; w++ {
			for fm := 12; fm <= 16; fm++ {
				ip := fpga.IPConfig{Tm: 8, Tn: 8, WBits: w, FMBits: fm}
				_ = ip.DSPCost()
			}
		}
	}
}

// BenchmarkFig6SizeDist measures the Figure 6 box-size sampler.
func BenchmarkFig6SizeDist(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		dataset.SampleAreaRatio(rng)
	}
}

// BenchmarkTable5GPU measures the TX2 roofline + scoring path behind
// Table 5.
func BenchmarkTable5GPU(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	mean := hw.CalibrateMeanEnergy(hw.GPU2019[0], hw.GPUTrackX)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		costs := nn.Costs(g, []int{1, 3, 48, 96})
		lat := hw.TX2.GraphLatency(costs)
		util := hw.TX2.Utilization(costs)
		entry := hw.Entry{Team: "sim", IoU: 0.73, FPS: 1 / lat, PowerW: hw.TX2.Power(util)}
		hw.ScoreEntries([]hw.Entry{entry}, hw.GPUTrackX, mean)
	}
}

// BenchmarkTable6FPGA measures the Ultra96 accelerator schedule behind
// Table 6, full-size SkyNet priced from its node table.
func BenchmarkTable6FPGA(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := backbone.SkyNetC(rng, backbone.DefaultConfig())
	ip := fpga.AutoConfig(fpga.Ultra96, 11, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpga.Simulate(nn.Costs(g, []int{1, 3, 160, 320}), fpga.Ultra96, ip)
	}
}

// BenchmarkTable7Quant measures quantized SkyNet inference under the
// paper's chosen scheme 1 (W11/FM9) vs float32.
func BenchmarkTable7Quant(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	x := benchInput(rng, 1, 3, 48, 96)
	b.Run("float32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Forward(x, false)
		}
	})
	b.Run("scheme1", func(b *testing.B) {
		quant.WithScheme(g, quant.Table7Schemes[1], []*tensor.Tensor{x}, func(m quant.Emulated) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Forward(x, false)
			}
		})
	})
}

// BenchmarkFig9Tiling measures the batch+tiling evaluation.
func BenchmarkFig9Tiling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fpga.EvaluateTiling(2457600, 9, 16)
	}
}

// BenchmarkFig10Pipeline measures the live three-stage pipelined executor
// against serial execution on a compute workload.
func BenchmarkFig10Pipeline(b *testing.B) {
	work := func(_ context.Context, v any) (any, error) {
		x := v.(int)
		for k := 0; k < 2000; k++ {
			x = x*1664525 + 1013904223
		}
		return x, nil
	}
	stages := []pipeline.StageSpec{
		{Name: pipeline.StagePre, Proc: work},
		{Name: pipeline.StageInfer, Proc: work},
		{Name: pipeline.StagePost, Proc: work},
	}
	items := make([]any, 64)
	for i := range items {
		items[i] = i
	}
	ctx := context.Background()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, it := range items {
				for _, s := range stages {
					it, _ = s.Proc(ctx, it)
				}
			}
		}
	})
	pip, err := pipeline.NewExecutor(2, stages...)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pipelined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pip.Run(ctx, items); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable8SiamRPN measures one tracking step per backbone.
func BenchmarkTable8SiamRPN(b *testing.B) {
	gen := func() []dataset.Sequence {
		cfg := dataset.DefaultConfig()
		cfg.W, cfg.H = 96, 96
		g := dataset.NewGenerator(cfg)
		sc := dataset.DefaultSequenceConfig()
		sc.Length = 4
		return g.Sequences(1, sc)
	}
	builders := []struct {
		name  string
		build func(rng *rand.Rand, cfg backbone.Config) (g *nn.Graph, ch int)
	}{
		{"AlexNet", func(rng *rand.Rand, cfg backbone.Config) (*nn.Graph, int) {
			return backbone.AlexNetFeatures(rng, cfg), cfg.ScaledChannels(256)
		}},
		{"ResNet-50", func(rng *rand.Rand, cfg backbone.Config) (*nn.Graph, int) {
			return backbone.ResNet50(rng, cfg), 4 * cfg.ScaledChannels(512)
		}},
		{"SkyNet", func(rng *rand.Rand, cfg backbone.Config) (*nn.Graph, int) {
			return backbone.SkyNetA(rng, cfg), cfg.ScaledChannels(512)
		}},
	}
	for _, bb := range builders {
		b.Run(bb.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			cfg := backbone.Config{Width: 0.125, InC: 3, HeadChannels: 0, MaxStride: 8, ReLU6: true}
			g, ch := bb.build(rng, cfg)
			tr := track.New(g, ch, track.DefaultConfig())
			seq := gen()[0]
			zf, err := tr.ExemplarFeaturesFor(seq.Frames[0], seq.Boxes[0])
			if err != nil {
				b.Fatal(err)
			}
			box := seq.Boxes[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if box, err = tr.StepBoxE(zf, seq.Frames[1+i%3], box); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable9SiamMask measures one SiamMask training step (mask head
// included).
func BenchmarkTable9SiamMask(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := backbone.Config{Width: 0.125, InC: 3, HeadChannels: 0, ReLU6: true}
	g := backbone.SkyNetA(rng, cfg)
	tcfg := track.DefaultConfig()
	tcfg.WithMask = true
	tr := track.New(g, cfg.ScaledChannels(512), tcfg)
	dcfg := dataset.DefaultConfig()
	dcfg.W, dcfg.H = 96, 96
	seq := dataset.NewGenerator(dcfg).Sequence(dataset.SequenceConfig{Length: 4})
	opt := nn.NewSGD(0.001, 0.9, 0)
	pairRng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := tr.MakePair(seq, 0, 1+i%3, pairRng)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tr.Step(p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParamCounts measures full-size architecture construction and
// parameter accounting (the Table 2 / headline-ratio machinery).
func BenchmarkParamCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = backbone.ParamsMillions(backbone.SkyNetC)
	}
}

// --- substrate kernels -----------------------------------------------------

// BenchmarkMatMul measures the blocked GEMM kernel at convolution-typical
// shapes: the original 96×432×512 regression shape plus the two SkyNet
// im2col shapes (3×3 stem conv on a 48×96 frame at width 0.25, and the
// widest pointwise conv). Reports GFLOPS and allocs/op — the packed kernel
// must be allocation-free once its scratch pool is warm.
func BenchmarkMatMul(b *testing.B) {
	shapes := []struct {
		name    string
		m, k, n int
	}{
		{"96x432x512", 96, 432, 512},
		{"SkyNetStem_48x27x2560", 48, 27, 2560},
		{"SkyNetPW_96x48x1280", 96, 48, 1280},
	}
	rng := rand.New(rand.NewSource(1))
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			a := tensor.New(s.m, s.k)
			a.RandNormal(rng, 0, 1)
			c := tensor.New(s.k, s.n)
			c.RandNormal(rng, 0, 1)
			out := tensor.New(s.m, s.n)
			tensor.MatMulInto(out, a, c) // warm the GEMM scratch pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMulInto(out, a, c)
			}
			flops := 2 * float64(s.m) * float64(s.k) * float64(s.n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// BenchmarkConvForwardSteadyState measures the warm conv hot path: Conv2D
// and DWConv3 forwards report the allocations of their caller-owned output
// tensor and nothing else (at one nn worker; see
// TestConv2DForwardSteadyStateAllocs).
func BenchmarkConvForwardSteadyState(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	layers := []struct {
		name string
		l    nn.Layer
	}{
		{"Conv2D_8to16_16x16", nn.NewConv2D(rng, 8, 16, 3, 1, 1, true)},
		{"DWConv3_48_20x40", nn.NewDWConv3(rng, 48, 3, true)},
	}
	inputs := []*tensor.Tensor{
		benchInput(rng, 1, 8, 16, 16),
		benchInput(rng, 1, 48, 20, 40),
	}
	for i, lc := range layers {
		b.Run(lc.name, func(b *testing.B) {
			xs := []*tensor.Tensor{inputs[i]}
			lc.l.Forward(xs, false)
			lc.l.Forward(xs, false) // warm layer caches and scratch
			b.ReportAllocs()
			b.ResetTimer()
			for j := 0; j < b.N; j++ {
				lc.l.Forward(xs, false)
			}
		})
	}
}

// BenchmarkGraphInference measures the planned inference forward of the
// deployed model, full-width SkyNet C on 160×320 frames, at the stream
// executor's two batch sizes: bytes/s is input pixels, and allocs/op is the
// caller-owned output tensor's two, its header and its data, whatever the
// batch and the worker count (see TestGraphInferenceSteadyStateAllocs).
func BenchmarkGraphInference(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := backbone.SkyNetC(rng, backbone.DefaultConfig())
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("batch%d", n), func(b *testing.B) {
			x := benchInput(rng, n, 3, 160, 320)
			g.Forward(x, false) // compile the plan, grow the arena
			b.SetBytes(int64(4 * x.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Forward(x, false)
			}
		})
	}
}

// BenchmarkInt8Forward is BenchmarkGraphInference on the int8 engine
// (quant.Export of the same model): a warm forward allocates its output's
// header and data and nothing else, the same as nn.Graph.Forward.
func BenchmarkInt8Forward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := backbone.SkyNetC(rng, backbone.DefaultConfig())
	qm, err := quant.Export(g, []*tensor.Tensor{benchInput(rng, 4, 3, 160, 320)}, quant.ExportConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("batch%d", n), func(b *testing.B) {
			x := benchInput(rng, n, 3, 160, 320)
			qm.Forward(x, false) // compile the plan, grow the arena
			b.SetBytes(int64(4 * x.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qm.Forward(x, false)
			}
		})
	}
}

// BenchmarkExport measures lowering the deployed model on the benchmark's
// calibration set, two batches of four 160×320 frames: what a server start,
// an /admin/swap {"quantize":true} and every measured-fitness evaluation of
// the search pay. B/op stays far below one sample's feature maps (82 MB).
func BenchmarkExport(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := backbone.SkyNetC(rng, backbone.DefaultConfig())
	calib := []*tensor.Tensor{benchInput(rng, 4, 3, 160, 320), benchInput(rng, 4, 3, 160, 320)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := quant.Export(g, calib, quant.ExportConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSkyNetBundleForward measures one DW+PW+BN+ReLU6 Bundle.
func BenchmarkSkyNetBundleForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bl := bundle.Enumerate()[7] // DW3+PW+BN+ReLU6
	layers := bl.Build(rng, 48, 96)
	x := benchInput(rng, 1, 48, 20, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := x
		for _, l := range layers {
			cur = l.Forward([]*tensor.Tensor{cur}, false)
		}
	}
}

// BenchmarkPSOIteration measures one full PSO iteration on a synthetic
// fitness landscape.
func BenchmarkPSOIteration(b *testing.B) {
	eval := staticEval{}
	cfg := pso.Config{
		Groups: 3, PerGroup: 8, Iterations: 1,
		Slots: 6, Pools: 3, ChannelMin: 8, ChannelMax: 256,
		Alpha:    0.01,
		Beta:     map[string]float64{pso.PlatformFPGA: 2},
		TargetMS: map[string]float64{pso.PlatformFPGA: 40},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := pso.SearchFrom(cfg, eval, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

type staticEval struct{}

func (staticEval) Accuracy(n pso.Network, epochs int) float64 {
	var s float64
	for _, c := range n.Channels {
		s += float64(c)
	}
	return 1 / (1 + s/1000)
}

func (staticEval) Latency(n pso.Network) map[string]float64 {
	var s float64
	for _, c := range n.Channels {
		s += float64(c)
	}
	return map[string]float64{pso.PlatformFPGA: s / 20}
}

// --- ablation benches: the design choices DESIGN.md calls out -------------

// BenchmarkAblationBypass isolates the cost of the Stage-3 bypass: model A
// (chain) vs model C (bypass + reorder + fusion bundle) at equal width.
func BenchmarkAblationBypass(b *testing.B) {
	for _, v := range []backbone.SkyNetVariant{backbone.VariantA, backbone.VariantC} {
		b.Run("SkyNet"+v.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			cfg := backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true}
			g := backbone.SkyNet(rng, cfg, v)
			x := benchInput(rng, 1, 3, 48, 96)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Forward(x, false)
			}
		})
	}
}

// BenchmarkAblationActivation compares ReLU with ReLU6 — the paper adopts
// ReLU6 for its bounded range (fewer FM bits), not for speed, so the two
// should be nearly identical in software.
func BenchmarkAblationActivation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := benchInput(rng, 8, 64, 20, 40)
	for _, l := range []nn.Layer{nn.NewReLU(), nn.NewReLU6()} {
		b.Run(l.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.Forward([]*tensor.Tensor{x}, false)
			}
		})
	}
}

// BenchmarkAblationSeparableVsStandard compares SkyNet's DW+PW Bundle
// against a standard 3×3 convolution at equal channel widths — the
// compute saving that motivates the Bundle choice.
func BenchmarkAblationSeparableVsStandard(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := benchInput(rng, 1, 96, 20, 40)
	bundles := bundle.Enumerate()
	sep := bundles[7].Build(rng, 96, 192) // DW3+PW+BN+ReLU6
	std := bundles[1].Build(rng, 96, 192) // Conv3+BN+ReLU6
	run := func(name string, layers []nn.Layer) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cur := x
				for _, l := range layers {
					cur = l.Forward([]*tensor.Tensor{cur}, false)
				}
			}
		})
	}
	run("DW3+PW", sep)
	run("Conv3", std)
}

// BenchmarkAblationReorgVsPool compares the Figure 5 reordering against
// pooling at the same downsampling factor: the bijection costs a data
// shuffle but loses no information.
func BenchmarkAblationReorgVsPool(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := benchInput(rng, 1, 192, 20, 40)
	for _, l := range []nn.Layer{nn.NewReorg(2), nn.NewMaxPool(2)} {
		b.Run(l.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.Forward([]*tensor.Tensor{x}, false)
			}
		})
	}
}

// BenchmarkAblationGroupPSO compares group-based evolution against the
// global-evolution ablation at identical budgets.
func BenchmarkAblationGroupPSO(b *testing.B) {
	base := pso.Config{
		Groups: 3, PerGroup: 6, Iterations: 5,
		Slots: 6, Pools: 3, ChannelMin: 8, ChannelMax: 256,
		Alpha:    0.01,
		Beta:     map[string]float64{pso.PlatformFPGA: 2},
		TargetMS: map[string]float64{pso.PlatformFPGA: 40},
	}
	for _, global := range []bool{false, true} {
		name := "group-based"
		if global {
			name = "global"
		}
		b.Run(name, func(b *testing.B) {
			cfg := base
			cfg.GlobalEvolution = global
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i)
				if _, err := pso.SearchFrom(cfg, staticEval{}, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMobileNetVsSkyNet contrasts the Table 1 reference family
// (MobileNetV1, used by several contest entries) against the searched
// SkyNet at equal scale.
func BenchmarkMobileNetVsSkyNet(b *testing.B) {
	builders := map[string]backbone.Builder{
		"MobileNetV1": backbone.MobileNetV1,
		"SkyNetC":     backbone.SkyNetC,
	}
	for name, build := range builders {
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			cfg := backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, MaxStride: 8, ReLU6: true}
			g := build(rng, cfg)
			x := benchInput(rng, 1, 3, 48, 96)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Forward(x, false)
			}
		})
	}
}
