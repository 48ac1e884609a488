package quant

import (
	"fmt"
	"math"
	"sync/atomic"

	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// observer accumulates one tensor's max-abs over the calibration set. It may
// be fed concurrently, in any order: the bits of float32s ≥ +0 order as their
// values do, so a compare-and-swap on them keeps the maximum exact.
type observer struct {
	maxAbs atomic.Uint32 // float32 bits
}

func (o *observer) observe(data []float32) {
	a := math.Float32bits(tensor.MaxAbsFinite(data))
	for old := o.maxAbs.Load(); a > old; old = o.maxAbs.Load() {
		if o.maxAbs.CompareAndSwap(old, a) {
			break
		}
	}
}

// clip returns the calibrated clipping value: the largest absolute finite
// value seen.
func (o *observer) clip() float32 { return math.Float32frombits(o.maxAbs.Load()) }

// ActivationClips holds what activation calibration measures: the largest
// absolute finite value of the graph input and of every node output.
type ActivationClips struct {
	Input float32
	Node  []float32
}

// CalibrateActivations runs the graph of plans in eval mode over the
// calibration batches and returns the clip of the graph input and of every
// node output: the largest absolute finite value seen (a BatchNorm or ReLU
// computed inside its convolution's GEMM store reads 0, which grid maps to
// scale 1). Per-tensor activation scales with per-output-channel weight
// scales is the standard post-training int8 recipe: feature maps share one
// grid because the next layer's GEMM consumes them whole; each weight
// channel's scale folds into its requantize multiplier.
//
// It observes the plans the cache holds or compiles (nn.Plan.Run, one lane) —
// in Export, the ones the engine then runs; in Emulate, plans under a mask
// marking every node —: no hook, no feature map allocated. The Bundle steps
// feed the depth-wise and pre-pool maps to the running maxima band by band,
// never whole; a maximum does not depend on the pieces or their order, so the
// clips are those of the batched layer walk, which the plan equals bit for
// bit. A laid-out Concat is not scanned: its slot is its inputs' side by
// side, so its max-abs is the largest of theirs.
func CalibrateActivations(plans *nn.PlanCache, batches []*tensor.Tensor) (ActivationClips, error) {
	if len(batches) == 0 {
		return ActivationClips{}, fmt.Errorf("quant: calibration needs at least one batch")
	}
	var inObs observer
	obs := make([]observer, len(plans.Graph().Nodes))
	laid := make([][]int, len(obs)) // a laid-out Concat's inputs; the mask, not the shape, decides which
	steps, _ := plans.For(batches[0].Shape()).Steps()
	for _, s := range steps {
		if s.Laid {
			laid[s.Out] = s.Inputs
		}
	}
	observe := func(i int, data []float32) {
		if laid[i] == nil {
			obs[i].observe(data)
		}
	}
	for _, b := range batches {
		inObs.observe(b.Data)
		plans.For(b.Shape()).Run(b, observe)
	}
	for c, inputs := range laid { // in node order: an input precedes its Concat
		for _, j := range inputs {
			obs[c].observe([]float32{obs[j].clip()})
		}
	}
	out := ActivationClips{Input: inObs.clip(), Node: make([]float32, len(obs))}
	for i := range obs {
		out.Node[i] = obs[i].clip()
	}
	return out, nil
}

// QuantizeWeightsPerChannel quantizes a row-major [rows, cols] weight
// matrix symmetrically with one scale per row (per output channel): codes
// are tensor.CodeRNE(v/scale) in float64 (NaN -> 0, ±Inf saturate).
// All-zero or non-finite rows get scale 1 and zero codes.
func QuantizeWeightsPerChannel(w []float32, rows, cols int) ([]int8, []float32) {
	if len(w) < rows*cols {
		panic("quant: QuantizeWeightsPerChannel weight slice shorter than rows*cols")
	}
	codes := make([]int8, rows*cols)
	scales := make([]float32, rows)
	for r := 0; r < rows; r++ {
		row, dst := w[r*cols:(r+1)*cols], codes[r*cols:(r+1)*cols]
		scales[r] = grid(8, tensor.MaxAbsFinite(row)).Scale
		// Converted in the loop, the scale's CVTSS2SD (false dependency on its
		// register) chained each weight's divide to the last: 3× slower.
		s := float64(scales[r])
		for c, v := range row {
			dst[c] = tensor.CodeRNE(float64(v) / s)
		}
	}
	return codes, scales
}
