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
// bundle.Chain. Stage 2 runs the search service's spec (pso.JobSpec), which
// also sizes the data every stage trains on, and Run refuses, before Stage
// 1, a spec the service would refuse. The result is a trained
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
	// Stage 1.
	Stage1Epochs int
	// MaxGroups caps how many Pareto Bundles seed Stage 2 groups.
	MaxGroups int

	// Search is Stage 2's search and the data every stage trains on: the
	// spec the search service takes, its Groups set by Stage 1. Its seed
	// is the flow's, its batch size the final training's.
	Search pso.JobSpec

	// Stage 3 + final training.
	FinalEpochs int

	// Log, if non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// DefaultFlowConfig returns a CPU-budget configuration of the full flow
// (small images, few particles, short training) that still exercises every
// stage for real.
func DefaultFlowConfig() FlowConfig {
	return FlowConfig{
		Stage1Epochs: 3,
		MaxGroups:    3,
		Search: pso.JobSpec{
			Config: pso.Config{
				PerGroup: 3, Iterations: 3,
				Slots: 4, Pools: 2,
				ChannelMin: 8, ChannelMax: 64,
				Alpha: 0.005,
				Beta:  map[string]float64{pso.PlatformFPGA: 2, pso.PlatformGPU: 1},
				TargetMS: map[string]float64{
					pso.PlatformFPGA: 40, // ≈ the 25 FPS contest operating point
					pso.PlatformGPU:  15, // ≈ the 67 FPS pipeline bottleneck
				},
				Seed: 1,
			},
			W: 48, H: 24,
			TrainN: 48, ValN: 24,
			BatchSize: 8,
		},
		FinalEpochs: 10,
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

// Run executes the full bottom-up flow, or returns the error of a
// configuration it cannot run: one the search service would refuse
// (pso.JobSpec.Check), Stage 2 being its search run in-process on at most
// MaxGroups of the frontier's Bundles.
func Run(cfg FlowConfig) (FlowResult, error) {
	spec := cfg.Search
	spec.Groups = len(bundle.Enumerate()) // at most every Bundle is on the frontier
	if cfg.MaxGroups > 0 {
		spec.Groups = min(spec.Groups, cfg.MaxGroups)
	}
	if err := spec.Check(); err != nil {
		return FlowResult{}, err
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// The evaluator draws its splits from a generator of its own; Stages 1
	// and 3 share one of the same configuration.
	evaluator := spec.NewEvaluator()
	gen := dataset.NewGenerator(evaluator.Gen.Config())

	// ---- Stage 1: Bundle selection and evaluation -----------------------
	candidates := bundle.Enumerate()
	logf("stage 1: evaluating %d candidate bundles", len(candidates))
	acc := bundle.TrainingAccuracy(gen, spec.TrainN, spec.ValN, cfg.Stage1Epochs, spec.Seed)
	evals := bundle.EvaluateAll(candidates, acc, spec.H, spec.W, bundle.Contest)
	selected := bundle.ParetoSelect(evals)
	if cfg.MaxGroups > 0 && len(selected) > cfg.MaxGroups {
		// Keep the most accurate frontier points (they are latency-sorted,
		// accuracy-increasing, so the tail is the high-accuracy end).
		selected = selected[len(selected)-cfg.MaxGroups:]
	}
	logf("stage 1: %d bundles on the Pareto frontier", len(selected))

	// ---- Stage 2: hardware-aware DNN search ------------------------------
	// Group i replicates the i-th Pareto Bundle; Beta weighs no CPU key.
	evaluator.Bundles = make([]int, len(selected))
	for i, e := range selected {
		evaluator.Bundles[i] = e.Bundle.ID
	}
	search := spec.Config
	search.Groups = len(selected)
	if search.Progress == nil {
		search.Progress = func(itr int, best pso.Particle) {
			logf("stage 2: iteration %d best fitness %.4f (%s)", itr, best.Fit, best.Net)
		}
	}
	result, err := pso.SearchFrom(search, evaluator, nil, nil)
	if err != nil {
		return FlowResult{}, err
	}
	logf("stage 2: best %s fit %.4f acc %.4f", result.Best.Net, result.Best.Fit, result.Best.Acc)

	// ---- Stage 3: feature addition (ReLU6, bypass) + final training -----
	best := result.Best.Net
	finalBundle := selected[best.BundleType].Bundle.WithReLU6()
	finalNet, bypassApplied := bundle.Chain{Bundle: finalBundle, Channels: best.Channels, PoolAfter: best.PoolPos,
		InC: 3, HeadC: 10, Bypass: true}.Build(rand.New(rand.NewSource(spec.Seed)))
	head := detect.NewHead(nil)
	train := gen.DetectionSet(spec.TrainN)
	val := gen.DetectionSet(spec.ValN)
	detect.TrainDetector(finalNet, head, train, detect.TrainConfig{
		Epochs:    cfg.FinalEpochs,
		BatchSize: spec.BatchSize,
		LR:        nn.LRSchedule{Start: 0.01, End: 0.001, Epochs: cfg.FinalEpochs},
	})
	finalIoU := detect.MeanIoU(finalNet, head, val, spec.BatchSize)
	logf("stage 3: bypass=%v final IoU %.4f", bypassApplied, finalIoU)

	// Hardware reports for the final design.
	price := bundle.Contest.Price(finalNet, []int{1, 3, spec.H, spec.W})

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
