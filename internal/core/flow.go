// Package core orchestrates the paper's primary contribution: the
// three-stage bottom-up DNN design flow of Figure 3.
//
//	Stage 1 — Bundle selection and evaluation: enumerate hardware-aware
//	  Bundles, measure realistic latency and FPGA resources for each,
//	  fast-train a fixed sketch per Bundle, and keep the Pareto frontier.
//	Stage 2 — Hardware-aware DNN search: a group-based PSO over channel
//	  widths and pooling positions with the Equation 1 fitness mixing
//	  validation accuracy and per-platform latency targets.
//	Stage 3 — Feature addition: the feature-map bypass with reordering for
//	  small objects, and ReLU6 for cheaper activation storage.
//
// Every stage prices on one target, bundle.Contest (the DAC-SDC operating
// point: Ultra96 at W11/FM9, and the TX2), and every network it builds is a
// bundle.Chain. Run refuses, before Stage 1, a configuration the search
// service would refuse (pso.JobSpec.Check). The result is a trained
// detector plus the hardware reports a deployment decision needs.
package core

import (
	"math/rand"

	"skynet/internal/bundle"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/fpga"
	"skynet/internal/nn"
	"skynet/internal/pso"
)

// FlowConfig parameterizes a full bottom-up design run. The zero value is
// not usable; start from DefaultFlowConfig.
type FlowConfig struct {
	// Data generation.
	Dataset dataset.Config
	TrainN  int
	ValN    int

	// Stage 1.
	Stage1Epochs int
	// MaxGroups caps how many Pareto Bundles seed Stage 2 groups.
	MaxGroups int

	// Stage 2.
	Search pso.Config

	// Stage 3 + final training.
	FinalEpochs int

	Seed int64
	// Log, if non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// DefaultFlowConfig returns a CPU-budget configuration of the full flow
// (small images, few particles, short training) that still exercises every
// stage for real.
func DefaultFlowConfig() FlowConfig {
	ds := dataset.DefaultConfig()
	ds.W, ds.H = 48, 24
	return FlowConfig{
		Dataset:      ds,
		TrainN:       48,
		ValN:         24,
		Stage1Epochs: 3,
		MaxGroups:    3,
		Search: pso.Config{
			PerGroup: 3, Iterations: 3,
			Slots: 4, Pools: 2,
			ChannelMin: 8, ChannelMax: 64,
			Alpha: 0.005,
			Beta:  map[string]float64{pso.PlatformFPGA: 2, pso.PlatformGPU: 1},
			TargetMS: map[string]float64{
				pso.PlatformFPGA: 40, // ≈ the 25 FPS contest operating point
				pso.PlatformGPU:  15, // ≈ the 67 FPS pipeline bottleneck
			},
		},
		FinalEpochs: 10,
		Seed:        1,
	}
}

// FlowResult carries everything the flow produced.
type FlowResult struct {
	// Stage 1 outputs.
	Candidates []bundle.Evaluation
	Selected   []bundle.Evaluation
	// Stage 2 outputs.
	Search pso.Result
	// Stage 3 / final outputs.
	FinalSpec     pso.Network
	FinalBundle   bundle.Bundle
	FinalNet      *nn.Graph
	Head          *detect.Head
	BypassApplied bool
	FinalIoU      float64
	FPGAReport    fpga.Report
	GPULatencyMS  float64
}

// batch is the flow's training and evaluation batch size.
const batch = 8

// check refuses a configuration the flow cannot run as asked, by the search
// service's bounds: Stage 2 is the service's search, run in-process.
func (cfg FlowConfig) check() error {
	groups := len(bundle.Enumerate()) // at most every Bundle is on the frontier
	if cfg.MaxGroups > 0 {
		groups = min(groups, cfg.MaxGroups)
	}
	s := cfg.Search
	return pso.JobSpec{
		Groups: groups, PerGroup: s.PerGroup, Iterations: s.Iterations,
		Slots: s.Slots, Pools: s.Pools, ChannelMin: s.ChannelMin, ChannelMax: s.ChannelMax,
		W: cfg.Dataset.W, H: cfg.Dataset.H, TrainN: cfg.TrainN, ValN: cfg.ValN, BatchSize: batch,
	}.Check()
}

// Run executes the full bottom-up flow, or returns the error of a
// configuration it cannot run.
func Run(cfg FlowConfig) (FlowResult, error) {
	if err := cfg.check(); err != nil {
		return FlowResult{}, err
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	gen := dataset.NewGenerator(cfg.Dataset)

	// ---- Stage 1: Bundle selection and evaluation -----------------------
	candidates := bundle.Enumerate()
	logf("stage 1: evaluating %d candidate bundles", len(candidates))
	acc := bundle.TrainingAccuracy(gen, cfg.TrainN, cfg.ValN, cfg.Stage1Epochs, cfg.Seed)
	evals := bundle.EvaluateAll(candidates, acc, cfg.Dataset.H, cfg.Dataset.W, bundle.Contest)
	selected := bundle.ParetoSelect(evals)
	if cfg.MaxGroups > 0 && len(selected) > cfg.MaxGroups {
		// Keep the most accurate frontier points (they are latency-sorted,
		// accuracy-increasing, so the tail is the high-accuracy end).
		selected = selected[len(selected)-cfg.MaxGroups:]
	}
	logf("stage 1: %d bundles on the Pareto frontier", len(selected))

	// ---- Stage 2: hardware-aware DNN search ------------------------------
	// Group i replicates the i-th Pareto Bundle; Beta weighs no CPU key.
	ids := make([]int, len(selected))
	for i, e := range selected {
		ids[i] = e.Bundle.ID
	}
	search := cfg.Search
	search.Groups = len(ids)
	search.Seed = cfg.Seed
	if search.Progress == nil {
		search.Progress = func(itr int, best pso.Particle) {
			logf("stage 2: iteration %d best fitness %.4f (%s)", itr, best.Fit, best.Net)
		}
	}
	evaluator := &pso.EngineEvaluator{
		Gen:    dataset.NewGenerator(cfg.Dataset),
		TrainN: cfg.TrainN, ValN: cfg.ValN,
		Bundles: ids,
		Seed:    cfg.Seed,
	}
	result := pso.Search(search, evaluator)
	logf("stage 2: best %s fit %.4f acc %.4f", result.Best.Net, result.Best.Fit, result.Best.Acc)

	// ---- Stage 3: feature addition (ReLU6, bypass) + final training -----
	best := result.Best.Net
	finalBundle := selected[best.BundleType].Bundle.WithReLU6()
	finalNet, bypassApplied := bundle.Chain{Bundle: finalBundle, Channels: best.Channels, PoolAfter: best.PoolPos,
		InC: 3, HeadC: 10, Bypass: true}.Build(rand.New(rand.NewSource(cfg.Seed)))
	head := detect.NewHead(nil)
	train := gen.DetectionSet(cfg.TrainN)
	val := gen.DetectionSet(cfg.ValN)
	detect.TrainDetector(finalNet, head, train, detect.TrainConfig{
		Epochs:    cfg.FinalEpochs,
		BatchSize: batch,
		LR:        nn.LRSchedule{Start: 0.01, End: 0.001, Epochs: cfg.FinalEpochs},
	})
	finalIoU := detect.MeanIoU(finalNet, head, val, batch)
	logf("stage 3: bypass=%v final IoU %.4f", bypassApplied, finalIoU)

	// Hardware reports for the final design.
	price := bundle.Contest.Price(finalNet, []int{1, 3, cfg.Dataset.H, cfg.Dataset.W})

	return FlowResult{
		Candidates:    evals,
		Selected:      selected,
		Search:        result,
		FinalSpec:     best,
		FinalBundle:   finalBundle,
		FinalNet:      finalNet,
		Head:          head,
		BypassApplied: bypassApplied,
		FinalIoU:      finalIoU,
		FPGAReport:    price.Report,
		GPULatencyMS:  price.GPUms,
	}, nil
}
