package experiments

import (
	"math/rand"

	"skynet/internal/backbone"
	"skynet/internal/dataset"
	"skynet/internal/fpga"
	"skynet/internal/hw"
	"skynet/internal/nn"
)

// WidthSweep is an ablation beyond the paper: SkyNet C swept across width
// multipliers, trading accuracy against both platforms' throughput. It
// exposes the Pareto frontier the Stage-2 search navigates implicitly —
// each row is one (accuracy, TX2 FPS, Ultra96 FPS, size) design point.
func WidthSweep(o Options) Table {
	gen := dataset.NewGenerator(o.datasetConfig())
	train := gen.DetectionSet(o.trainN())
	val := gen.DetectionSet(o.valN())
	t := Table{
		ID:     "WidthSweep",
		Title:  "SkyNet C width ablation: accuracy vs both-platform throughput",
		Header: []string{"Width", "Params", "IoU", "TX2 FPS (model)", "Ultra96 FPS (model)", "Size (KB)"},
		Notes: []string{
			"an extension ablation: the accuracy/latency trade the PSO fitness (Eq. 1) balances, swept explicitly",
		},
	}
	widths := []float64{0.125, 0.25, 0.5}
	if !o.Quick {
		widths = []float64{0.0625, 0.125, 0.25, 0.5, 0.75}
	}
	cfgD := o.datasetConfig()
	for _, w := range widths {
		o.logf("widthsweep: training width %.3f", w)
		rng := rand.New(rand.NewSource(o.seed()))
		cfg := backbone.Config{Width: w, InC: 3, HeadChannels: 10, ReLU6: true}
		g := backbone.SkyNetC(rng, cfg)
		iou := trainEval(g, train, val, o.epochs())
		// Hardware models at the deployment resolution.
		costs := nn.Costs(g, []int{1, 3, cfgD.H, cfgD.W})
		gpuFPS := 1 / hw.TX2.GraphLatency(costs)
		rep := fpga.Simulate(costs, fpga.Ultra96, fpga.AutoConfig(fpga.Ultra96, 11, 9))
		t.Rows = append(t.Rows, []string{
			f3(w),
			f2(float64(g.NumParams()) / 1e3),
			f3(iou),
			f1(gpuFPS),
			f1(rep.FPS),
			f1(float64(g.ParamBytes()) / 1024),
		})
	}
	return t
}
