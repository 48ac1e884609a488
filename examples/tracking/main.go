// Tracking demo (§7): train SiamRPN++-style trackers with a SkyNet and a
// ResNet-50 backbone on synthetic GOT-10k-like sequences and compare the
// GOT-10k metrics (AO, SR@0.50, SR@0.75) and speeds — the Table 8 story in
// miniature, plus a SiamMask-style mask prediction.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/track"
)

// must ends the demo on a tracker call's error.
func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return v
}

func main() {
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H = 96, 96
	gen := dataset.NewGenerator(cfg)
	sc := dataset.DefaultSequenceConfig()
	sc.Length = 12
	trainSeqs := gen.Sequences(4, sc)
	evalSeqs := gen.Sequences(3, sc)

	bcfg := backbone.Config{Width: 0.125, InC: 3, HeadChannels: 0, MaxStride: 8, ReLU6: true}
	run := func(name string, tr *track.Tracker) track.EvalResult {
		fmt.Printf("training %s tracker...\n", name)
		must(tr.Train(trainSeqs, track.TrainConfig{Steps: 400, LR: 0.01, Seed: 1}))
		res := must(tr.Evaluate(evalSeqs))
		fmt.Printf("  %-10s AO %.3f  SR@0.50 %.3f  SR@0.75 %.3f  %.1f FPS (this machine)\n",
			name, res.AO, res.SR50, res.SR75, res.FPS)
		return res
	}

	rng := rand.New(rand.NewSource(1))
	sky := track.New(backbone.SkyNetA(rng, bcfg), bcfg.ScaledChannels(512), track.DefaultConfig())
	skyRes := run("SkyNet", sky)

	rng = rand.New(rand.NewSource(1))
	r50 := track.New(backbone.ResNet50(rng, bcfg), 4*bcfg.ScaledChannels(512), track.DefaultConfig())
	r50Res := run("ResNet-50", r50)

	if r50Res.FPS > 0 {
		fmt.Printf("\nSkyNet backbone speedup over ResNet-50: %.2fx (paper reports 1.60x on a 1080Ti)\n",
			skyRes.FPS/r50Res.FPS)
	}

	// SiamMask-style mask prediction from a mask-supervised tracker.
	mcfg := track.DefaultConfig()
	mcfg.WithMask = true
	rng = rand.New(rand.NewSource(2))
	sm := track.New(backbone.SkyNetA(rng, bcfg), bcfg.ScaledChannels(512), mcfg)
	fmt.Println("\ntraining SiamMask-style variant...")
	must(sm.Train(trainSeqs, track.TrainConfig{Steps: 400, LR: 0.01, Seed: 2}))
	seq := evalSeqs[0]
	zf := must(sm.ExemplarFeaturesFor(seq.Frames[0], seq.Boxes[0]))
	_, mask, err := sm.StepE(zf, seq.Frames[1], seq.Boxes[1], true)
	must(mask, err)
	fmt.Println("predicted mask patch at the response peak (16x16, '#' = foreground):")
	for y := 0; y < mask.Dim(1); y++ {
		for x := 0; x < mask.Dim(2); x++ {
			if mask.At(0, y, x) > 0.5 {
				fmt.Print("#")
			} else {
				fmt.Print(".")
			}
		}
		fmt.Println()
	}
}
