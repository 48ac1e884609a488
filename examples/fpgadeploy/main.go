// FPGA deployment demo (§6.4): train a SkyNet detector, explore the
// Table 7 quantization schemes, auto-size the shared Bundle IP for the
// Ultra96, and print the resulting latency/resource/power report together
// with the batch + tiling buffer plan.
package main

import (
	"fmt"
	"math/rand"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/fpga"
	"skynet/internal/nn"
	"skynet/internal/quant"
)

func main() {
	gen := dataset.NewGenerator(dataset.DefaultConfig())
	train := gen.DetectionSet(128)
	val := gen.DetectionSet(48)
	rng := rand.New(rand.NewSource(1))
	cfg := backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true}
	model := backbone.SkyNetC(rng, cfg)
	head := detect.NewHead(nil)

	fmt.Println("training float32 model...")
	detect.TrainDetector(model, head, train, detect.TrainConfig{
		Epochs: 15, BatchSize: 8,
		LR: nn.LRSchedule{Start: 0.01, End: 0.001, Epochs: 15},
	})

	fmt.Println("\nquantization schemes (Table 7):")
	fmt.Printf("  %-10s %-8s %-8s %s\n", "scheme", "FM bits", "W bits", "val IoU")
	var chosen quant.Scheme
	for _, s := range quant.Table7Schemes {
		var iou float64
		quant.WithScheme(model, s, func(m quant.Emulated) {
			iou = detect.MeanIoU(m, head, val, 8)
		})
		fmt.Printf("  %-10s %-8d %-8d %.3f\n", s, s.FMBits, s.WeightBits, iou)
		if s.ID == 1 {
			chosen = s // the paper picks scheme 1: accuracy dominates Eq. 5
		}
	}

	fmt.Printf("\nmapping onto %s with scheme %s:\n", fpga.Ultra96, chosen)
	// Priced at the deployment resolution.
	costs := nn.Costs(model, []int{1, 3, gen.Config().H, gen.Config().W})
	ip := fpga.AutoConfig(fpga.Ultra96, chosen.WeightBits, chosen.FMBits)
	ip.Batch = 4
	rep := fpga.Estimate(costs, fpga.Ultra96, ip)
	fmt.Printf("  IP: %dx%d multipliers, %d DSPs (%.0f%% of device)\n",
		ip.Tm, ip.Tn, rep.DSPUsed, rep.UtilDSP*100)
	fmt.Printf("  latency %.2f ms -> %.1f FPS at %.1f GOPS\n",
		rep.LatencyS*1e3, rep.FPS, rep.GOPS)
	fmt.Printf("  BRAM %d/%d blocks, weights %.1f KB, modeled power %.2f W\n",
		rep.BRAMUsed, fpga.Ultra96.BRAM18K, rep.WeightKB, rep.PowerW())
	fmt.Printf("  fits device: %v\n", rep.Fits)

	fmt.Println("\ntile-level schedule (ideal bound from the cycle simulator):")
	sim := fpga.Simulate(costs, fpga.Ultra96, ip)
	fmt.Print(sim.Timeline())

	fmt.Println("\nbatch + tiling plan (Figure 9):")
	strip := rep.MaxFMWords / int64(gen.Config().H) * 4
	for _, r := range fpga.EvaluateTiling(strip, chosen.FMBits, ip.Tn) {
		fmt.Printf("  %-18s %4d blocks  %.2f weight loads/image\n",
			r.Scheme, r.BRAMBlocks, r.WeightLoadsPerImage)
	}
}
