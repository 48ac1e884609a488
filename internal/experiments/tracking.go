package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/hw"
	"skynet/internal/nn"
	"skynet/internal/track"
)

// trackerFor builds a tracker with the named backbone at test scale.
func trackerFor(name string, withMask bool, seed int64) *track.Tracker {
	rng := rand.New(rand.NewSource(seed))
	cfg := backbone.Config{Width: 0.125, InC: 3, HeadChannels: 0, MaxStride: 8, ReLU6: true}
	tcfg := track.DefaultConfig()
	tcfg.WithMask = withMask
	tcfg.Seed = seed
	switch name {
	case "AlexNet":
		g := backbone.AlexNetFeatures(rng, cfg)
		return track.New(g, cfg.ScaledChannels(256), tcfg)
	case "ResNet-50":
		g := backbone.ResNet50(rng, cfg)
		return track.New(g, 4*cfg.ScaledChannels(512), tcfg)
	case "SkyNet":
		g := backbone.SkyNetA(rng, cfg)
		return track.New(g, cfg.ScaledChannels(512), tcfg)
	}
	panic("unknown tracking backbone " + name)
}

// modelFPS1080Ti estimates tracker frame rate on a 1080Ti: full-size
// search-branch roofline latency plus per-kernel launch overheads (which
// penalize the 100+-layer ResNet-50) plus a fixed correlation/RPN-head
// cost shared by all backbones.
func modelFPS1080Ti(b backbone.Builder) float64 {
	rng := rand.New(rand.NewSource(0))
	cfg := backbone.Config{Width: 1, InC: 3, HeadChannels: 0, ReLU6: true}
	g := b(rng, cfg)
	p := hw.GTX1080Ti
	const headS = 0.010 // correlation + RPN/mask heads + box post-processing
	lat := p.GraphLatency(nn.Costs(g, []int{1, 3, 256, 256})) + p.PerLayerOverheadS*float64(len(g.Nodes)) + headS
	return 1 / lat
}

func trainSteps(o Options) int {
	if o.Override != nil {
		return o.Override.TrackSteps
	}
	if o.Quick {
		return 900
	}
	return 2500
}

func trackingSequences(o Options, n int) []dataset.Sequence {
	cfg := o.datasetConfig()
	cfg.W, cfg.H = 96, 96
	cfg.Clutter = 1
	gen := dataset.NewGenerator(cfg)
	sc := dataset.DefaultSequenceConfig()
	sc.Length = 10
	return gen.Sequences(n, sc)
}

// Table8 reproduces the SiamRPN++ backbone comparison on GOT-10k-style
// sequences: AO / SR@0.50 / SR@0.75 from real tracking runs, the measured
// in-process frame rate, and the modeled 1080Ti frame rate. The paper's
// shape: SkyNet's accuracy matches ResNet-50's while running ~1.6× faster.
func Table8(o Options) Table {
	nTrain, nEval := 6, 3
	if !o.Quick {
		nTrain, nEval = 12, 8
	}
	seqs := trackingSequences(o, nTrain+nEval)
	t := Table{
		ID:        "Table 8",
		Title:     "SiamRPN++-style trackers on synthetic GOT-10k sequences",
		Header:    []string{"Backbone", "AO", "SR0.50", "SR0.75", "FPS (Go)", "FPS (1080Ti model)", "Paper AO", "Paper FPS"},
		WallClock: []string{"FPS (Go)"},
		Notes: []string{
			"backbones at width 0.125 / stride 8 on 96x96 frames; 1080Ti FPS from the roofline + per-kernel launch model",
		},
	}
	for _, c := range []struct {
		name      string
		fullBuild backbone.Builder
		paperAO   float64
		paperFPS  float64
	}{
		{"AlexNet", backbone.AlexNetFeatures, 0.354, 52.36},
		{"ResNet-50", backbone.ResNet50, 0.365, 25.90},
		{"SkyNet", backbone.SkyNetC, 0.364, 41.22},
	} {
		o.logf("table8: training %s tracker", c.name)
		tr := trackerFor(c.name, false, o.seed())
		tr.Train(seqs[:nTrain], track.TrainConfig{Steps: trainSteps(o), LR: 0.01, Seed: o.seed()})
		res := tr.Evaluate(seqs[nTrain:])
		t.Rows = append(t.Rows, []string{
			c.name, f3(res.AO), f3(res.SR50), f3(res.SR75),
			f2(res.FPS), f2(modelFPS1080Ti(c.fullBuild)),
			f3(c.paperAO), f2(c.paperFPS),
		})
	}
	return t
}

// Table9 reproduces the SiamMask backbone comparison: the mask-supervised
// variant with ResNet-50 vs SkyNet backbones.
func Table9(o Options) Table {
	nTrain, nEval := 6, 3
	if !o.Quick {
		nTrain, nEval = 12, 8
	}
	seqs := trackingSequences(o, nTrain+nEval)
	t := Table{
		ID:        "Table 9",
		Title:     "SiamMask-style trackers on synthetic sequences",
		Header:    []string{"Backbone", "AO", "SR0.50", "SR0.75", "FPS (Go)", "FPS (1080Ti model)", "Paper AO", "Paper FPS"},
		WallClock: []string{"FPS (Go)"},
		Notes: []string{
			"mask supervision from generator masks (stand-in for Youtube-VOS)",
		},
	}
	for _, c := range []struct {
		name      string
		fullBuild backbone.Builder
		paperAO   float64
		paperFPS  float64
	}{
		{"ResNet-50", backbone.ResNet50, 0.380, 17.44},
		{"SkyNet", backbone.SkyNetC, 0.390, 30.15},
	} {
		o.logf("table9: training %s SiamMask tracker", c.name)
		tr := trackerFor(c.name, true, o.seed())
		// The mask branch slows convergence for the deep backbone; the
		// SiamMask rows get a proportionally larger step budget.
		tr.Train(seqs[:nTrain], track.TrainConfig{Steps: trainSteps(o) * 5 / 3, LR: 0.01, Seed: o.seed()})
		res := tr.Evaluate(seqs[nTrain:])
		t.Rows = append(t.Rows, []string{
			c.name, f3(res.AO), f3(res.SR50), f3(res.SR75),
			f2(res.FPS), f2(modelFPS1080Ti(c.fullBuild) * 0.6), // mask head adds ~40% cost
			f3(c.paperAO), f2(c.paperFPS),
		})
	}
	return t
}

// Fig8 renders qualitative tracking results: a trained SkyNet tracker's
// boxes overlaid on sequence frames (ASCII, with optional PPM output).
func Fig8(o Options) Table {
	seqs := trackingSequences(o, 7)
	tr := trackerFor("SkyNet", false, o.seed())
	tr.Train(seqs[:6], track.TrainConfig{Steps: trainSteps(o), LR: 0.01, Seed: o.seed()})
	seq := seqs[6]
	t := Table{
		ID:     "Figure 8",
		Title:  "Tracking results (G = ground truth, P = prediction, B = both)",
		Header: []string{"Frame", "IoU"},
	}
	box := seq.Boxes[0]
	zf := tr.ExemplarFeatures(seq)
	for f := 1; f < seq.Len(); f += 3 {
		for g := f - 2; g <= f; g++ {
			if g < 1 {
				continue
			}
			box = tr.StepBox(zf, seq.Frames[g], box)
		}
		iou := box.IoU(seq.Boxes[f])
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", f), f3(iou)})
		t.Notes = append(t.Notes, "\n"+dataset.ASCIIRender(seq.Frames[f], seq.Boxes[f], box, 48))
		if o.OutDir != "" {
			img := seq.Frames[f].Clone()
			dataset.DrawBox(img, seq.Boxes[f], 0, 1, 0)
			dataset.DrawBox(img, box, 1, 0, 0)
			path := filepath.Join(o.OutDir, fmt.Sprintf("fig8_frame%d.ppm", f))
			if fh, err := os.Create(path); err == nil {
				_ = dataset.WritePPM(fh, img)
				_ = fh.Close() // debug render is best-effort by design
				t.Notes = append(t.Notes, "wrote "+path)
			}
		}
	}
	return t
}
