// Command skynet-train trains a SkyNet detector on the synthetic DAC-SDC
// stand-in dataset and reports validation mean IoU, optionally saving a
// self-describing checkpoint (spec + weights) that skynet-detect,
// skynet-serve and skynet-sim load.
//
// Usage:
//
//	skynet-train -variant C -relu6 -epochs 30 -train 512 -ckpt skynet.ckpt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/modelspec"
	"skynet/internal/nn"
)

func main() {
	var (
		variant = flag.String("variant", "C", "SkyNet variant: A, B or C (Table 3)")
		relu6   = flag.Bool("relu6", true, "use ReLU6 activations (Table 4 ablation)")
		width   = flag.Float64("width", 0.25, "channel width multiplier (1.0 = paper size)")
		imgW    = flag.Int("imgw", 96, "input width in pixels")
		imgH    = flag.Int("imgh", 48, "input height in pixels")
		trainN  = flag.Int("train", 256, "training set size")
		valN    = flag.Int("val", 96, "validation set size")
		epochs  = flag.Int("epochs", 25, "training epochs")
		lr      = flag.Float64("lr", 0.01, "initial learning rate (decays geometrically 10x)")
		augment = flag.Bool("augment", true, "apply fresh distort/jitter/crop augmentation each epoch (§6.1)")
		seed    = flag.Int64("seed", 1, "random seed")
		ckpt    = flag.String("ckpt", "", "output self-describing checkpoint (spec + weights)")
		summary = flag.Bool("summary", false, "print the per-layer model summary before training")
	)
	flag.Parse()

	spec := modelspec.Spec{
		Family: "skynet", Variant: strings.ToUpper(*variant), Width: *width, InC: 3,
		HeadChannels: 10, ReLU6: *relu6, Seed: *seed,
	}
	g, head, err := spec.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "skynet-train: %v\n", err)
		os.Exit(2)
	}
	costs, err := nn.CostsOf(g, []int{1, spec.InC, *imgH, *imgW})
	if err != nil {
		fmt.Fprintf(os.Stderr, "skynet-train: %v\n", err)
		os.Exit(1)
	}

	dcfg := dataset.DefaultConfig()
	dcfg.W, dcfg.H = *imgW, *imgH
	dcfg.Seed = *seed
	gen := dataset.NewGenerator(dcfg)
	train := gen.DetectionSet(*trainN)
	val := gen.DetectionSet(*valN)

	fmt.Printf("SkyNet %s (%s, width %.2f): %d parameters\n",
		spec.Variant, map[bool]string{true: "ReLU6", false: "ReLU"}[*relu6], *width, g.NumParams())
	if *summary {
		fmt.Print(nn.Summary(costs))
	}

	tcfg := detect.TrainConfig{
		Epochs:    *epochs,
		BatchSize: 8,
		LR:        nn.LRSchedule{Start: float32(*lr), End: float32(*lr) / 10, Epochs: *epochs},
		Progress: func(epoch int, loss float64) {
			if (epoch+1)%5 == 0 || epoch == 0 {
				fmt.Printf("epoch %3d  loss %.4f  val IoU %.4f\n",
					epoch+1, loss, detect.MeanIoU(g, head, val, 8))
			}
		},
	}
	if *augment {
		tcfg.Augment = dataset.NewAugmentor(*seed, 0.2, 0.08).Apply
	}
	detect.TrainDetector(g, head, train, tcfg)
	fmt.Printf("final validation IoU: %.4f over %d images\n",
		detect.MeanIoU(g, head, val, 8), len(val))

	if *ckpt != "" {
		if err := modelspec.SaveCheckpoint(*ckpt, spec, g); err != nil {
			fmt.Fprintf(os.Stderr, "skynet-train: saving checkpoint: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint written to %s\n", *ckpt)
	}
}
