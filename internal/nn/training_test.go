package nn_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/nn"
	"skynet/internal/tensor"
	"skynet/internal/track"
)

// trainingDigest hashes the bits of every parameter and of every batch
// norm's running statistics in gs.
func trainingDigest(ps []*nn.Param, gs ...*nn.Graph) string {
	h := sha256.New()
	put := func(data []float32) {
		for _, v := range data {
			_ = binary.Write(h, binary.LittleEndian, math.Float32bits(v)) // a hash.Hash write never fails
		}
	}
	for _, p := range ps {
		put(p.W.Data)
	}
	for _, g := range gs {
		for _, n := range g.Nodes {
			if bn, ok := n.Layer.(*nn.BatchNorm); ok {
				put(bn.RunMean.Data)
				put(bn.RunVar.Data)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestTrainingStepsPinned holds training to fixed bits: three SGD steps
// (momentum, weight decay, ClipGradNorm) of each SkyNet variant at width 0.25
// on 48×96 batches of 8 against an MSE target, three of the AlexNet-class
// classifier Figure 2(a) trains (its dropout draws included), and three
// tracker steps with the mask head. Every parameter's bits and every batch
// norm's running statistics afterwards must hash to the digests below, under
// every kernel set: the record's tables rest on training, and this is the
// fast check that no change to the layers' forward or backward moved a bit.
func TestTrainingStepsPinned(t *testing.T) {
	want := map[string]string{
		"SkyNet A": "0c6e9f813fce2aa226bb6006",
		"SkyNet B": "f2ae71bafc8160dd15e09e45",
		"SkyNet C": "5609ebc92bdf6fdb7b52096f",
		"AlexNet":  "50318202a4cf258fc86ba626",
		"tracker":  "ed4f628bfed2e690d2e10012",
	}
	got := map[string]string{}
	for _, v := range []struct {
		name  string
		build func(*rand.Rand, backbone.Config) *nn.Graph
	}{{"SkyNet A", backbone.SkyNetA}, {"SkyNet B", backbone.SkyNetB}, {"SkyNet C", backbone.SkyNetC}} {
		rng := rand.New(rand.NewSource(41))
		g := v.build(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
		opt := nn.NewSGD(0.01, 0.9, 1e-4)
		for step := 0; step < 3; step++ {
			out := g.Forward(randBatch(rng, 8, 3, 48, 96), true)
			target := randBatch(rng, out.Shape()...)
			grad := tensor.New(out.Shape()...)
			for i, o := range out.Data {
				grad.Data[i] = 2 * (o - target.Data[i]) / float32(out.Len())
			}
			g.Backward(grad)
			nn.ClipGradNorm(g.Params(), 5)
			opt.Step(g.Params())
		}
		got[v.name] = trainingDigest(g.Params(), g)
	}

	rng := rand.New(rand.NewSource(42))
	alex := backbone.AlexNet(rng, backbone.Config{Width: 0.0625, InC: 3}, 48, 48, dataset.NumCategories)
	opt := nn.NewSGD(0.003, 0.9, 1e-4)
	for step := 0; step < 3; step++ {
		labels := make([]int, 8)
		for i := range labels {
			labels[i] = rng.Intn(dataset.NumCategories)
		}
		_, grad := nn.SoftmaxCrossEntropy(alex.Forward(randBatch(rng, 8, 3, 48, 48), true), labels)
		alex.Backward(grad)
		nn.ClipGradNorm(alex.Params(), 5)
		opt.Step(alex.Params())
	}
	got["AlexNet"] = trainingDigest(alex.Params(), alex)

	rng = rand.New(rand.NewSource(43))
	cfg := track.DefaultConfig()
	cfg.WithMask, cfg.Seed = true, 43
	bb := backbone.SkyNetA(rng, backbone.Config{Width: 0.125, InC: 3, ReLU6: true})
	tr := track.New(bb, 64, cfg) // SkyNet A headless at width 0.125 ends with 64 channels
	opt = nn.NewSGD(0.01, 0.9, 0)
	for step := 0; step < 3; step++ {
		mask := tensor.New(1, cfg.MaskSize, cfg.MaskSize)
		for i := range mask.Data {
			mask.Data[i] = float32(rng.Intn(2))
		}
		if _, err := tr.Step(track.Pair{
			Exemplar: randBatch(rng, 3, cfg.ExemplarSize, cfg.ExemplarSize),
			Search:   randBatch(rng, 3, cfg.SearchSize, cfg.SearchSize),
			CellY:    1 + step, CellX: 3 - step,
			SubX: 0.2, SubY: -0.1, TW: 0.3, TH: -0.2,
			MaskGT: mask,
		}, opt); err != nil {
			t.Fatal(err)
		}
	}
	got["tracker"] = trainingDigest(tr.Params(), bb)

	for _, name := range []string{"SkyNet A", "SkyNet B", "SkyNet C", "AlexNet", "tracker"} {
		if got[name] != want[name] {
			t.Errorf("%s after three training steps: digest %s, want %s", name, got[name], want[name])
		}
	}
}
