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
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/modelspec"
	"skynet/internal/nn"
	"skynet/internal/pipeline"
	"skynet/internal/quant"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, flag.ErrHelp):
	case err != nil:
		fmt.Fprintf(os.Stderr, "skynet-detect: %v\n", err)
		os.Exit(1)
	}
}

// run detects over the scenes the flags name, writing its report to stdout.
func run(args []string, stdout io.Writer) error {
	w := bufio.NewWriter(stdout)
	fs := flag.NewFlagSet("skynet-detect", flag.ContinueOnError)
	var (
		ckpt   = fs.String("ckpt", "", "self-describing checkpoint written by skynet-train -ckpt")
		imgW   = fs.Int("imgw", 96, "input width in pixels")
		imgH   = fs.Int("imgh", 48, "input height in pixels")
		n      = fs.Int("n", 16, "number of scenes to detect")
		seed   = fs.Int64("seed", 99, "scene generation seed")
		render = fs.Bool("render", false, "ASCII-render each detection")
		batch  = fs.Int("batch", 4, "inference micro-batch size")

		quantize = fs.Bool("quantize", false, "run the int8 lowering of the model (post-training quantization)")
		calibN   = fs.Int("calib", 32, "calibration scenes drawn for -quantize")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *ckpt == "":
		return errors.New("-ckpt is required")
	case *n < 1: // an R_IoU over no scene is refused, not reported as 0
		return fmt.Errorf("-n %d: need at least one scene", *n)
	case *quantize && *calibN < 1:
		return fmt.Errorf("-calib %d: -quantize needs at least one calibration scene", *calibN)
	}
	spec, g, head, err := modelspec.LoadCheckpoint(*ckpt)
	if err != nil {
		return err
	}
	if _, err := nn.CostsOf(g, []int{1, spec.InC, *imgH, *imgW}); err != nil {
		return fmt.Errorf("-imgw %d -imgh %d: %w", *imgW, *imgH, err)
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
		qm, err := quant.Export(g, detect.Batches(calib, 8), quant.ExportConfig{})
		if err != nil {
			return fmt.Errorf("quantize: %w", err)
		}
		i8, fb, fused := qm.Stats()
		fmt.Fprintf(w, "int8 lowering: %d int8 units, %d float fallback, %d nodes fused\n", i8, fb, fused)
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
		return err
	}
	t0 := time.Now()
	out, err := ex.Run(context.Background(), frames)
	elapsed := time.Since(t0)
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}

	var total float64
	for i, v := range out {
		f := v.(*detect.Frame)
		iou := f.Box.IoU(f.GT)
		total += iou
		fmt.Fprintf(w, "scene %2d  %-12s conf %.2f  IoU %.3f\n",
			i+1, dataset.CategoryName(scenes[i].Category), f.Conf, iou)
		if *render {
			fmt.Fprintln(w, dataset.ASCIIRender(scenes[i].Image, f.GT, f.Box, 64))
		}
	}
	fmt.Fprintf(w, "R_IoU over %d scenes: %.3f\n", *n, total/float64(*n))
	fmt.Fprintf(w, "pipeline: %.1f FPS over %d scenes (%s)\n",
		float64(*n)/elapsed.Seconds(), *n, pipeline.StageBreakdown(ex.MeasuredProfile()))
	for _, s := range ex.Stats() {
		fmt.Fprintf(w, "  %s\n", s)
	}
	return w.Flush()
}
