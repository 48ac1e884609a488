// UAV detection pipeline: the embedded deployment story of §6.3 on a live
// workload. A trained SkyNet processes a stream of synthetic UAV frames
// through the three-stage streaming executor (multi-worker pre-process →
// micro-batched inference → multi-worker post-process), compared against a
// serial baseline, and the run is scored with the DAC-SDC total-score
// formula. The measured per-stage profile is printed next to the analytic
// pipeline model's prediction.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/hw"
	"skynet/internal/nn"
	"skynet/internal/pipeline"
)

func main() {
	gen := dataset.NewGenerator(dataset.DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	cfg := backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true}
	model := backbone.SkyNetC(rng, cfg)
	head := detect.NewHead(nil)

	fmt.Println("training detector...")
	train := gen.DetectionSet(128)
	detect.TrainDetector(model, head, train, detect.TrainConfig{
		Epochs: 15, BatchSize: 8,
		LR: nn.LRSchedule{Start: 0.01, End: 0.001, Epochs: 15},
	})

	// Build the stream of frames. Each frame's acquisition carries a
	// simulated camera-fetch latency — the §6.3 serial flow spends 10ms on
	// input fetch (TX2SerialProfile), and hiding that cost behind
	// inference is exactly what the merged fetch/pre-process stage buys.
	const nFrames = 48
	const fetchDelay = 8 * time.Millisecond
	frames := make([]any, nFrames)
	for i := range frames {
		s := gen.Scene()
		frames[i] = &detect.Frame{Image: s.Image, GT: s.Box}
	}

	// Serial baseline: the original flow — fetch, pre-process, batch-1
	// inference, post-process, back-to-back per frame.
	serialBoxes := make([]detect.Box, nFrames)
	t0 := time.Now()
	for i, v := range frames {
		f := v.(*detect.Frame)
		time.Sleep(fetchDelay) // camera DMA
		x := f.Image.Clone()
		c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
		boxes, _ := head.Decode(model.Forward(x.Reshape(1, c, h, w), false))
		serialBoxes[i] = boxes[0]
	}
	serial := time.Since(t0)

	// Streaming executor: the merged fetch+pre-process stage scaled across
	// two workers, micro-batched inference, scaled-out post-processing.
	fetchPre := pipeline.StageSpec{Name: pipeline.StagePre, Workers: 2,
		Proc: func(ctx context.Context, v any) (any, error) {
			f := v.(*detect.Frame)
			t := time.NewTimer(fetchDelay) // camera DMA
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			f.X = f.Image.Clone()
			return f, nil
		}}
	ex, err := pipeline.NewExecutor(4,
		fetchPre,
		detect.InferStage(model, 4),
		detect.PostStage(head, 2),
	)
	if err != nil {
		panic(err)
	}
	t1 := time.Now()
	out, err := ex.Run(context.Background(), frames)
	pipelined := time.Since(t1)
	if err != nil {
		panic(err)
	}

	var iouSum float64
	identical := true
	for i, v := range out {
		f := v.(*detect.Frame)
		iouSum += f.Box.IoU(f.GT)
		// Batched BatchNorm inference is bitwise identical to batch-1 here
		// (inference-mode BN uses running stats), so the executor must
		// reproduce the serial boxes exactly.
		if f.Box != serialBoxes[i] {
			identical = false
		}
	}
	meanIoU := iouSum / float64(len(out))
	fps := float64(nFrames) / pipelined.Seconds()
	fmt.Printf("\nprocessed %d frames (results identical to serial: %v)\n", nFrames, identical)
	fmt.Printf("serial:    %8.1f ms (%.1f FPS)\n", serial.Seconds()*1e3, float64(nFrames)/serial.Seconds())
	fmt.Printf("pipelined: %8.1f ms (%.1f FPS, %.2fx)\n",
		pipelined.Seconds()*1e3, fps, serial.Seconds()/pipelined.Seconds())

	// Measured per-stage profile vs the analytic model's makespan.
	prof := ex.MeasuredProfile()
	fmt.Printf("measured stages: %s\n", pipeline.StageBreakdown(prof))
	fmt.Printf("analytic PipelinedMakespan over measured profile: %.1f ms (measured %.1f ms)\n",
		pipeline.PipelinedMakespan(prof, nFrames)*1e3, pipelined.Seconds()*1e3)
	for _, s := range ex.Stats() {
		fmt.Printf("  %s\n", s)
	}
	fmt.Printf("mean IoU (R_IoU, Eq. 2): %.3f\n", meanIoU)

	// Score the run with the contest formulas against the TX2 power model.
	// One more forward seeds GraphCosts with per-layer shapes.
	f0 := out[0].(*detect.Frame)
	x0 := f0.X.Clone()
	model.Forward(x0.Reshape(1, x0.Dim(0), x0.Dim(1), x0.Dim(2)), false)
	costs := hw.GraphCosts(model)
	power := hw.TX2.Power(hw.TX2.Utilization(costs))
	entry := hw.Entry{Team: "uavdetect", IoU: meanIoU, FPS: fps, PowerW: power}
	score := hw.ScoreEntries([]hw.Entry{entry}, hw.GPUTrackX,
		hw.CalibrateMeanEnergy(hw.GPU2019[0], hw.GPUTrackX))[0]
	fmt.Printf("modeled power %.1f W -> energy score %.3f, total score (Eq. 5) %.3f\n",
		power, score.ES, score.TS)
}
