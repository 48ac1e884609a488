// Command skynet-detect loads a checkpoint written by skynet-train and runs
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
//	skynet-train -variant C -width 0.25 -ckpt skynet.ckpt
//	skynet-detect -ckpt skynet.ckpt -n 32 -render
//	skynet-detect -ckpt skynet.ckpt -quantize -calib 64
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/modelspec"
	"skynet/internal/pipeline"
	"skynet/internal/quant"
)

func main() {
	var (
		ckpt   = flag.String("ckpt", "", "self-describing checkpoint written by skynet-train -ckpt")
		imgW   = flag.Int("imgw", 96, "input width in pixels")
		imgH   = flag.Int("imgh", 48, "input height in pixels")
		n      = flag.Int("n", 16, "number of scenes to detect")
		seed   = flag.Int64("seed", 99, "scene generation seed")
		render = flag.Bool("render", false, "ASCII-render each detection")
		batch  = flag.Int("batch", 4, "inference micro-batch size")

		quantize = flag.Bool("quantize", false, "run the int8 lowering of the model (post-training quantization)")
		calibN   = flag.Int("calib", 32, "calibration scenes drawn for -quantize")
		calibPct = flag.Float64("calib-pct", 0, "percentile activation calibration for -quantize (0 = min-max, e.g. 99.9)")
	)
	flag.Parse()
	if *ckpt == "" {
		fmt.Fprintln(os.Stderr, "skynet-detect: -ckpt is required")
		os.Exit(2)
	}
	_, g, head, err := modelspec.LoadCheckpoint(*ckpt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skynet-detect: %v\n", err)
		os.Exit(1)
	}

	dcfg := dataset.DefaultConfig()
	dcfg.W, dcfg.H = *imgW, *imgH
	dcfg.Seed = *seed

	var model detect.Model = g
	if *quantize {
		// The calibration scenes come from a shifted seed so they never
		// replay the evaluation scenes.
		ccfg := dcfg
		ccfg.Seed++
		calib := dataset.NewGenerator(ccfg).DetectionSet(*calibN)
		cfg := quant.ExportConfig{}
		if *calibPct > 0 {
			cfg.Calib = quant.CalibConfig{Method: quant.CalibPercentile, Percentile: *calibPct}
		}
		qm, err := quant.Export(g, detect.Batches(calib, 8), cfg)
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
