// Command skynet-detect loads weights produced by skynet-train and runs
// detection over freshly generated scenes on the §6.3 streaming executor
// (multi-worker pre/post stages around micro-batched inference), reporting
// per-image IoU, the aggregate R_IoU (Equation 2), throughput, and the
// measured per-stage breakdown, with optional ASCII rendering.
//
// With -quantize the loaded model is lowered to the real int8 engine
// (per-channel weights, per-tensor activations calibrated on -calib
// freshly generated scenes) before serving the stream.
//
// Usage:
//
//	skynet-train -variant C -width 0.25 -o skynet.gob
//	skynet-detect -weights skynet.gob -variant C -width 0.25 -n 32 -render
//	skynet-detect -weights skynet.gob -variant C -width 0.25 -quantize -calib 64
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/modelspec"
	"skynet/internal/nn"
	"skynet/internal/pipeline"
	"skynet/internal/quant"
	"skynet/internal/tensor"
)

func main() {
	var (
		ckpt    = flag.String("ckpt", "", "self-describing checkpoint written by skynet-train -ckpt")
		weights = flag.String("weights", "", "bare weights file (requires matching -variant/-width flags)")
		variant = flag.String("variant", "C", "SkyNet variant the weights were trained with")
		relu6   = flag.Bool("relu6", true, "activation the weights were trained with")
		width   = flag.Float64("width", 0.25, "width multiplier the weights were trained with")
		imgW    = flag.Int("imgw", 96, "input width in pixels")
		imgH    = flag.Int("imgh", 48, "input height in pixels")
		n       = flag.Int("n", 16, "number of scenes to detect")
		seed    = flag.Int64("seed", 99, "scene generation seed")
		render  = flag.Bool("render", false, "ASCII-render each detection")
		batch   = flag.Int("batch", 4, "inference micro-batch size")

		quantize = flag.Bool("quantize", false, "run the int8 lowering of the model (post-training quantization)")
		calibN   = flag.Int("calib", 32, "calibration scenes drawn for -quantize")
		calibPct = flag.Float64("calib-pct", 0, "percentile activation calibration for -quantize (0 = min-max, e.g. 99.9)")
	)
	flag.Parse()
	var g *nn.Graph
	var head *detect.Head
	switch {
	case *ckpt != "":
		_, cg, chead, err := modelspec.LoadCheckpoint(*ckpt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skynet-detect: %v\n", err)
			os.Exit(1)
		}
		g, head = cg, chead
	case *weights != "":
		var v backbone.SkyNetVariant
		switch *variant {
		case "A", "a":
			v = backbone.VariantA
		case "B", "b":
			v = backbone.VariantB
		default:
			v = backbone.VariantC
		}
		rng := rand.New(rand.NewSource(1))
		cfg := backbone.Config{Width: *width, InC: 3, HeadChannels: 10, ReLU6: *relu6}
		g = backbone.SkyNet(rng, cfg, v)
		if err := g.LoadFile(*weights); err != nil {
			fmt.Fprintf(os.Stderr, "skynet-detect: loading %s: %v\n", *weights, err)
			os.Exit(1)
		}
		head = detect.NewHead(nil)
	default:
		fmt.Fprintln(os.Stderr, "skynet-detect: -ckpt or -weights is required")
		os.Exit(2)
	}

	dcfg := dataset.DefaultConfig()
	dcfg.W, dcfg.H = *imgW, *imgH
	dcfg.Seed = *seed

	var model detect.Model = g
	if *quantize {
		qm, err := quantizeModel(g, dcfg, *calibN, *calibPct)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skynet-detect: quantize: %v\n", err)
			os.Exit(1)
		}
		i8, fb, fused := qm.Stats()
		fmt.Printf("int8 lowering: %d int8 units, %d float fallback, %d nodes fused\n", i8, fb, fused)
		model = qm
	}

	gen := dataset.NewGenerator(dcfg)
	scenes := make([]dataset.Scene, *n)
	frames := make([]any, *n)
	for i := range frames {
		scenes[i] = gen.Scene()
		frames[i] = &detect.Frame{Image: scenes[i].Image, GT: scenes[i].Box}
	}

	ex, err := detect.NewStreamExecutor(model, head, detect.StreamConfig{MaxBatch: *batch})
	if err != nil {
		fmt.Fprintf(os.Stderr, "skynet-detect: %v\n", err)
		os.Exit(1)
	}
	t0 := time.Now()
	out, err := ex.Run(context.Background(), frames)
	elapsed := time.Since(t0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skynet-detect: pipeline: %v\n", err)
		os.Exit(1)
	}

	var total float64
	for i, v := range out {
		f := v.(*detect.Frame)
		iou := f.Box.IoU(f.GT)
		total += iou
		fmt.Printf("scene %2d  %-12s conf %.2f  IoU %.3f\n",
			i+1, dataset.CategoryName(scenes[i].Category), f.Conf, iou)
		if *render {
			fmt.Println(dataset.ASCIIRender(scenes[i].Image, f.GT, f.Box, 64))
		}
	}
	fmt.Printf("R_IoU over %d scenes: %.3f\n", *n, total/float64(*n))
	fmt.Printf("pipeline: %.1f FPS over %d scenes (%s)\n",
		float64(*n)/elapsed.Seconds(), *n, pipeline.StageBreakdown(ex.MeasuredProfile()))
	for _, s := range ex.Stats() {
		fmt.Printf("  %s\n", s)
	}
}

// quantizeModel lowers g to a real int8 model, calibrating activations on
// freshly generated scenes. The calibration stream uses a shifted seed so
// it never replays the evaluation scenes.
func quantizeModel(g *nn.Graph, dcfg dataset.Config, calibN int, pct float64) (*quant.QuantizedModel, error) {
	dcfg.Seed++
	gen := dataset.NewGenerator(dcfg)
	const bs = 8
	var batches []*tensor.Tensor
	for lo := 0; lo < calibN; lo += bs {
		b := bs
		if lo+b > calibN {
			b = calibN - lo
		}
		x := tensor.New(b, 3, dcfg.H, dcfg.W)
		per := 3 * dcfg.H * dcfg.W
		for i := 0; i < b; i++ {
			copy(x.Data[i*per:(i+1)*per], gen.Scene().Image.Data)
		}
		batches = append(batches, x)
	}
	cfg := quant.ExportConfig{}
	if pct > 0 {
		cfg.Calib = quant.CalibConfig{Method: quant.CalibPercentile, Percentile: pct}
	}
	return quant.Export(g, batches, cfg)
}
