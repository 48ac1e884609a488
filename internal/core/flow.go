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
// The result is a trained detector plus the hardware reports a deployment
// decision needs.
package core

import (
	"math/rand"

	"skynet/internal/bundle"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/fpga"
	"skynet/internal/hw"
	"skynet/internal/modelspec"
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
	Sketch       bundle.SketchConfig
	Stage1Epochs int
	// MaxGroups caps how many Pareto Bundles seed Stage 2 groups.
	MaxGroups int

	// Stage 2.
	Search pso.Config

	// Stage 3 + final training.
	FinalEpochs int
	UseBypass   bool
	UseReLU6    bool

	// Hardware targets.
	Device fpga.Device
	GPU    hw.Platform
	WBits  int
	FMBits int

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
		Sketch:       bundle.DefaultSketch(),
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
		UseBypass:   true,
		UseReLU6:    true,
		Device:      fpga.Ultra96,
		GPU:         hw.TX2,
		WBits:       11,
		FMBits:      9,
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

// Run executes the full bottom-up flow.
func Run(cfg FlowConfig) FlowResult {
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	gen := dataset.NewGenerator(cfg.Dataset)

	// ---- Stage 1: Bundle selection and evaluation -----------------------
	target := bundle.Target{Device: cfg.Device, GPU: cfg.GPU, WBits: cfg.WBits, FMBits: cfg.FMBits}
	candidates := bundle.Enumerate()
	logf("stage 1: evaluating %d candidate bundles", len(candidates))
	acc := bundle.TrainingAccuracy(gen, cfg.Sketch, cfg.TrainN, cfg.ValN, cfg.Stage1Epochs, cfg.Seed)
	evals := bundle.EvaluateAll(candidates, acc, cfg.Sketch, cfg.Dataset.H, cfg.Dataset.W, target)
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
		InC: 3, HeadC: 10,
		Bundles: ids,
		Device:  cfg.Device, GPU: cfg.GPU,
		WBits: cfg.WBits, FMBits: cfg.FMBits,
		Seed: cfg.Seed,
	}
	result := pso.Search(search, evaluator)
	logf("stage 2: best %s fit %.4f acc %.4f", result.Best.Net, result.Best.Fit, result.Best.Acc)

	// ---- Stage 3: feature addition + final training ----------------------
	best := result.Best.Net
	finalBundle := selected[best.BundleType].Bundle
	if cfg.UseReLU6 {
		finalBundle = finalBundle.WithReLU6()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	finalNet, bypassApplied := modelspec.BuildBundleChain(rng, finalBundle, best.Channels, best.PoolPos, 3, 10, cfg.UseBypass)
	head := detect.NewHead(nil)
	train := gen.DetectionSet(cfg.TrainN)
	val := gen.DetectionSet(cfg.ValN)
	detect.TrainDetector(finalNet, head, train, detect.TrainConfig{
		Epochs:    cfg.FinalEpochs,
		BatchSize: 8,
		LR:        nn.LRSchedule{Start: 0.01, End: 0.001, Epochs: cfg.FinalEpochs},
	})
	finalIoU := detect.MeanIoU(finalNet, head, val, 8)
	logf("stage 3: bypass=%v relu6=%v final IoU %.4f", bypassApplied, cfg.UseReLU6, finalIoU)

	// Hardware reports for the final design.
	price := target.Price(finalNet, []int{1, 3, cfg.Dataset.H, cfg.Dataset.W})

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
	}
}
