// Package pipeline implements the system-level optimization of §6.3 and
// Figure 10: the four steps of running SkyNet (input fetch, pre-processing,
// DNN inference, post-processing) are merged into three stages — fetch and
// pre-processing combine — and executed as a multithreaded pipeline so the
// stages overlap across consecutive images. The paper measures a 3.35×
// end-to-end speedup over serial execution on the TX2, peaking at 67.33
// FPS, and applies the same partitioning between the host CPU and the
// accelerator on the Ultra96 (25.05 FPS).
//
// The package provides both an analytic makespan model (used by the
// benchmark harness, deterministic) and a real goroutine/channel executor,
// one goroutine per stage (used by the examples on live workloads).
package pipeline

import "fmt"

// Stage names of the merged three-stage pipeline.
const (
	StagePre   = "pre-process"  // input fetch + resize + normalization
	StageInfer = "inference"    // DNN forward pass
	StagePost  = "post-process" // bounding-box decode + buffering
)

// SerialMakespan returns the time to process n items when the stages run
// back-to-back with no overlap.
func SerialMakespan(durations []float64, n int) float64 {
	var sum float64
	for _, d := range durations {
		sum += d
	}
	return float64(n) * sum
}

// PipelinedMakespan returns the time to process n items when every stage
// runs in its own thread with unit buffering: the first item fills the
// pipeline, after which one item completes per bottleneck period.
func PipelinedMakespan(durations []float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	var sum, max float64
	for _, d := range durations {
		sum += d
		if d > max {
			max = d
		}
	}
	return sum + float64(n-1)*max
}

// ThroughputFPS returns the steady-state pipelined throughput: one item
// per bottleneck-stage period.
func ThroughputFPS(durations []float64) float64 {
	var max float64
	for _, d := range durations {
		if d > max {
			max = d
		}
	}
	if max == 0 {
		return 0
	}
	return 1 / max
}

// TX2SerialProfile is the original four-step serial flow of §6.3 (input
// fetch, pre-processing, batch-1 inference, post-processing), in seconds.
// Its 49.75ms per-image total is what the paper's 3.35× speedup is
// measured against (67.33 FPS / 3.35 ≈ 20.1 FPS serial).
var TX2SerialProfile = []float64{0.010, 0.012, 0.01775, 0.010}

// TX2StageProfile is the optimized three-stage pipeline of Figure 10:
// fetch and pre-processing merged (and batched), batched inference, and
// post-processing. The inference stage is the measured bottleneck
// (1/67.33 FPS ≈ 14.85ms); batching also shortens the per-image inference
// relative to the serial batch-1 step.
var TX2StageProfile = []float64{0.013, 0.014852, 0.010}

// SystemSpeedup returns the end-to-end gain of the optimized pipeline over
// the original serial flow for n images — the §6.3 metric (3.35× on TX2).
// Given the same profile twice it is the plain overlap gain of pipelining.
// The empty workload (n <= 0), and a zero-cost profile on both sides, are
// defined as 1 instead of the 0/0 NaN of the raw ratio; a zero-cost
// pipeline profile against a non-trivial serial one reports +Inf.
func SystemSpeedup(serialProfile, pipelineProfile []float64, n int) float64 {
	if n <= 0 {
		return 1
	}
	ser := SerialMakespan(serialProfile, n)
	pip := PipelinedMakespan(pipelineProfile, n)
	if pip == 0 && ser == 0 {
		return 1
	}
	return ser / pip
}

// FPGAStageProfile returns the Ultra96 three-stage profile for a given
// accelerator inference latency: the CPU-side stages are unchanged (same
// host code), and inference dominates.
func FPGAStageProfile(inferS float64) []float64 {
	return []float64{0.01745, inferS, 0.01745}
}

// StageBreakdown pretty-prints a profile. Three-entry profiles are the
// merged pipeline stages; four-entry profiles are the original serial
// steps (fetch, pre-process, inference, post-process).
func StageBreakdown(durations []float64) string {
	names := []string{StagePre, StageInfer, StagePost}
	if len(durations) == 4 {
		names = []string{"input-fetch", StagePre, StageInfer, StagePost}
	}
	s := ""
	for i, d := range durations {
		name := fmt.Sprintf("stage%d", i)
		if i < len(names) {
			name = names[i]
		}
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s %.2fms", name, d*1e3)
	}
	return s
}
