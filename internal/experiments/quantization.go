package experiments

import (
	"math/rand"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/fpga"
	"skynet/internal/nn"
	"skynet/internal/quant"
	"skynet/internal/tensor"
)

// Fig2a reproduces the quantization-sensitivity study: an AlexNet-class
// classifier is trained in float32, then evaluated under (blue series)
// progressively compressed parameters with float feature maps, and (green
// series) progressively compressed feature maps with float parameters.
// The paper's finding: accuracy is far more sensitive to feature-map
// precision at matching compression ratios.
func Fig2a(o Options) Table {
	cfg := o.datasetConfig()
	cfg.W, cfg.H = 48, 48
	cfg.Clutter = 0 // classification probes appearance, not localization
	gen := dataset.NewGenerator(cfg)
	// The classifier needs a larger budget than the detectors to move well
	// clear of chance accuracy, or the quantization deltas drown in noise.
	nTrain, nVal, epochs := 1024, 128, 30
	if !o.Quick {
		nTrain, nVal, epochs = 2048, 256, 50
	}
	if o.Override != nil {
		nTrain, nVal, epochs = o.Override.TrainN, o.Override.ValN, o.Override.Epochs
	}
	imgs, labels := gen.ClassificationSet(nTrain)
	valImgs, valLabels := gen.ClassificationSet(nVal)
	rng := rand.New(rand.NewSource(o.seed()))
	g := backbone.AlexNet(rng, backbone.Config{Width: 0.0625, InC: 3}, 48, 48, dataset.NumCategories)
	o.logf("fig2a: training AlexNet-class model (%d params, %d images, %d epochs)",
		g.NumParams(), nTrain, epochs)
	trainX, valX := batches(imgs), batches(valImgs)
	trainClassifier(g, trainX, labels, epochs)
	evalAcc := func(m detect.Model) float64 {
		var correct float64
		for b, x := range valX {
			correct += nn.Accuracy(m.Forward(x, false), valLabels[8*b:8*b+x.Dim(0)]) * float64(x.Dim(0))
		}
		return correct / float64(len(valImgs))
	}
	base := evalAcc(g)
	// The FM sizes are one 48×48 image's.
	costs := nn.Costs(g, []int{1, 3, 48, 48})
	paramMB := float64(quant.ParamBytesAtBits(g, 0)) / 1e6
	fmKB := float64(quant.FMBytesAtBits(costs, 0)) / 1e3

	t := Table{
		ID:     "Figure 2(a)",
		Title:  "Accuracy under parameter vs feature-map quantization",
		Header: []string{"Series", "Scheme", "Params (MB)", "FMs (KB)", "Compression", "Accuracy"},
		Notes: []string{
			"float32 AlexNet-class reference accuracy " + f3(base),
			"blue = parameter compression (FM float32); green = FM compression (params float32)",
		},
	}
	t.Rows = append(t.Rows, []string{"float32", "-", f2(paramMB), f1(fmKB), "1.0x", f3(base)})
	for _, gb := range quant.Fig2aParamSchemes {
		restore := quant.ApplyGroupBits(g, gb)
		acc := evalAcc(g)
		restore()
		sz := float64(quant.GroupedParamBytes(g, gb)) / 1e6
		t.Rows = append(t.Rows, []string{"param (blue)", gb.Name, f2(sz), f1(fmKB),
			f1(paramMB/sz) + "x", f3(acc)})
	}
	for _, gb := range quant.Fig2aFMSchemes {
		m, err := quant.Emulate(g, gb.FMBits, trainX) // grids calibrated on the training images
		if err != nil {
			panic(err) // no training image
		}
		acc := evalAcc(m)
		sz := float64(quant.FMBytesAtBits(costs, gb.FMBits)) / 1e3
		t.Rows = append(t.Rows, []string{"FM (green)", gb.Name, f2(paramMB), f1(sz),
			f1(fmKB/sz) + "x", f3(acc)})
	}
	return t
}

// batches stacks images into batches of 8, the last one short.
func batches(imgs []*tensor.Tensor) []*tensor.Tensor {
	var out []*tensor.Tensor
	for lo := 0; lo < len(imgs); lo += 8 {
		x := tensor.New(append([]int{min(8, len(imgs)-lo)}, imgs[0].Shape()...)...)
		per := imgs[0].Len()
		for i, im := range imgs[lo : lo+x.Dim(0)] {
			copy(x.Data[i*per:], im.Data)
		}
		out = append(out, x)
	}
	return out
}

func trainClassifier(g *nn.Graph, xs []*tensor.Tensor, labels []int, epochs int) {
	opt := nn.NewSGD(0.003, 0.9, 1e-4)
	sched := nn.LRSchedule{Start: 0.003, End: 0.0003, Epochs: epochs}
	params := g.Params()
	for e := 0; e < epochs; e++ {
		opt.LR = sched.At(e)
		for b, x := range xs {
			out := g.Forward(x, true)
			_, grad := nn.SoftmaxCrossEntropy(out, labels[8*b:8*b+x.Dim(0)])
			g.Backward(grad)
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
		}
	}
}

// Table7 reproduces the FPGA quantization-scheme selection: the trained
// SkyNet is evaluated under the five Table 7 schemes. The paper's shape:
// scheme 1 (FM9/W11) loses least; accuracy degrades as bits shrink, and
// feature-map bits matter more than weight bits.
func Table7(o Options) Table {
	gen := dataset.NewGenerator(o.datasetConfig())
	train := gen.DetectionSet(o.trainN())
	val := gen.DetectionSet(o.valN())
	rng := rand.New(rand.NewSource(o.seed()))
	cfg := backbone.Config{Width: o.width(), InC: 3, HeadChannels: 10, ReLU6: true}
	g := backbone.SkyNetC(rng, cfg)
	head := detect.NewHead(nil)
	o.logf("table7: training SkyNet C")
	detect.TrainDetector(g, head, train, detect.TrainConfig{
		Epochs:    o.epochs(),
		BatchSize: 8,
		LR:        nn.LRSchedule{Start: 0.01, End: 0.001, Epochs: o.epochs()},
	})
	t := Table{
		ID:     "Table 7",
		Title:  "Validation accuracy under FPGA quantization schemes",
		Header: []string{"Scheme", "FM bits", "W bits", "IoU (ours)", "Paper IoU"},
	}
	paper := []float64{0.741, 0.727, 0.714, 0.690, 0.680}
	// The emulated rows' feature-map grids and the int8 row's scales.
	calib := detect.Batches(train[:len(train)/8*8], 8)
	for i, s := range quant.Table7Schemes {
		var iou float64
		err := quant.WithScheme(g, s, calib, func(m quant.Emulated) {
			iou = detect.MeanIoU(m, head, val, 8)
		})
		if err != nil {
			panic(err) // fewer than 8 training samples
		}
		fm, w := "float32", "float32"
		if s.FMBits > 0 {
			fm = f1(float64(s.FMBits))
			w = f1(float64(s.WeightBits))
		}
		t.Rows = append(t.Rows, []string{s.String(), fm, w, f3(iou), f3(paper[i])})
	}
	// Sixth row: the real int8 engine (per-channel weights, per-tensor
	// activations, BN folded), not an emulation — the scheme the deployment
	// path `skynet-detect -quantize` / `skynet-serve -quantize` serves. The
	// paper has no corresponding row; its closest points are the 8-bit
	// feature-map schemes above.
	if qm, err := quant.Export(g, calib, quant.ExportConfig{}); err == nil {
		iou := detect.MeanIoU(qm, head, val, 8)
		t.Rows = append(t.Rows, []string{"int8 per-channel", "8", "8", f3(iou), "-"})
		// Couple the measured accuracy into the FPGA schedule so the
		// table carries the full accuracy/latency/resource point, for one
		// frame.
		costs := nn.Costs(g, []int{1, 3, gen.Config().H, gen.Config().W})
		op := fpga.Simulate(costs, fpga.Ultra96, fpga.AutoConfig(fpga.Ultra96, 8, 8)).WithAccuracy(iou)
		t.Notes = append(t.Notes,
			"int8 per-channel row measured by the real integer engine (quant.Export)",
			"Ultra96 W8/FM8 operating point: "+op.String())
	}
	return t
}
