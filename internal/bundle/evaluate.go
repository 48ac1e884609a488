package bundle

import (
	"math/rand"
	"sort"

	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/fpga"
	"skynet/internal/hw"
	"skynet/internal/nn"
)

// Evaluation is one Bundle's Stage-1 scorecard: accuracy potential from
// fast training plus realistic hardware numbers from the FPGA and GPU
// models.
type Evaluation struct {
	Bundle     Bundle
	Acc        float64 // validation IoU of the fast-trained sketch
	FPGALatMS  float64 // sketch latency on the FPGA model
	GPULatMS   float64 // sketch latency on the GPU roofline
	DSP        int
	BRAM       int
	ParamBytes int64
}

// Target is the hardware the flow prices on: the FPGA with its IP sized by
// fpga.AutoConfig at WBits/FMBits, and the GPU roofline.
type Target struct {
	Device        fpga.Device
	GPU           hw.Platform
	WBits, FMBits int
}

// Price is a built network's cost on a Target. It depends on the
// architecture and the input shape alone, never on weights or pixels.
type Price struct {
	MACs   int64
	Report fpga.Report
	GPUms  float64
}

// Price prices g on t at input shape in (in[0] is ignored; the price is one
// image's), from its price table (nn.Costs), with no forward: Stage 1's
// sketches, Stage 2's candidates, Stage 3's winner.
func (t Target) Price(g *nn.Graph, in []int) Price {
	costs := nn.Costs(g, in)
	var macs int64
	for _, c := range costs {
		macs += c.MACs
	}
	return Price{
		MACs:   macs,
		Report: fpga.Simulate(costs, t.Device, fpga.AutoConfig(t.Device, t.WBits, t.FMBits)),
		GPUms:  t.GPU.GraphLatency(costs) * 1e3,
	}
}

// FastTrain is Stages 1 and 2's fast-training recipe: epochs of SGD over
// train, the learning rate decaying 0.01 → 0.002, then the mean IoU on val.
func FastTrain(g *nn.Graph, head *detect.Head, train, val []detect.Sample, epochs, batch int) float64 {
	detect.TrainDetector(g, head, train, detect.TrainConfig{
		Epochs:    epochs,
		BatchSize: batch,
		LR:        nn.LRSchedule{Start: 0.01, End: 0.002, Epochs: epochs},
	})
	return detect.MeanIoU(g, head, val, batch)
}

// AccuracyFn probes a Bundle's accuracy potential. Production code uses
// TrainingAccuracy; tests may substitute cheap surrogates.
type AccuracyFn func(b Bundle) float64

// TrainingAccuracy returns an AccuracyFn that builds the Bundle's DNN
// sketch and fast-trains it for the given number of epochs on generated
// data (the paper uses 20 epochs), reporting validation mean IoU.
func TrainingAccuracy(gen *dataset.Generator, sketch SketchConfig, trainN, valN, epochs int, seed int64) AccuracyFn {
	train := gen.DetectionSet(trainN)
	val := gen.DetectionSet(valN)
	return func(b Bundle) float64 {
		g := b.BuildSketch(rand.New(rand.NewSource(seed)), sketch)
		return FastTrain(g, detect.NewHead(nil), train, val, epochs, 8)
	}
}

// HardwareEval prices the Bundle's sketch on t: its Stage-1 scorecard
// without the accuracy. The paper evaluates Bundles under the FPGA's
// constraints because they are the more restrictive of the two targets
// (§4.1).
func HardwareEval(b Bundle, sketch SketchConfig, inH, inW int, t Target) Evaluation {
	g := b.BuildSketch(rand.New(rand.NewSource(0)), sketch)
	p := t.Price(g, []int{1, sketch.InC, inH, inW})
	return Evaluation{Bundle: b, FPGALatMS: p.Report.LatencyS * 1e3, GPULatMS: p.GPUms,
		DSP: p.Report.DSPUsed, BRAM: p.Report.BRAMUsed, ParamBytes: g.ParamBytes()}
}

// EvaluateAll runs Stage 1 over all candidate Bundles, priced on t.
func EvaluateAll(bundles []Bundle, acc AccuracyFn, sketch SketchConfig, inH, inW int, t Target) []Evaluation {
	evals := make([]Evaluation, 0, len(bundles))
	for _, b := range bundles {
		e := HardwareEval(b, sketch, inH, inW, t)
		e.Acc = acc(b)
		evals = append(evals, e)
	}
	return evals
}

// ParetoSelect returns the Bundles on the accuracy/latency Pareto frontier
// (maximize accuracy, minimize FPGA latency), sorted by latency — "the most
// promising Bundles located in the Pareto curve are selected for the next
// stage" (§4.1).
func ParetoSelect(evals []Evaluation) []Evaluation {
	sorted := append([]Evaluation(nil), evals...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].FPGALatMS < sorted[j].FPGALatMS {
			return true
		}
		if sorted[i].FPGALatMS > sorted[j].FPGALatMS {
			return false
		}
		return sorted[i].Acc > sorted[j].Acc
	})
	var frontier []Evaluation
	bestAcc := -1.0
	for _, e := range sorted {
		if e.Acc > bestAcc {
			frontier = append(frontier, e)
			bestAcc = e.Acc
		}
	}
	return frontier
}
