package quant

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// CalibMethod selects how a calibrator turns an observed activation
// distribution into a clipping range.
type CalibMethod int

const (
	// CalibMaxAbs clips at the largest absolute value seen — no saturation,
	// but one outlier can stretch the grid and waste resolution.
	CalibMaxAbs CalibMethod = iota
	// CalibPercentile clips at the given percentile of absolute values,
	// trading a little saturation on the tail for finer resolution on the
	// bulk of the distribution.
	CalibPercentile
)

// CalibConfig configures post-training activation calibration.
type CalibConfig struct {
	Method CalibMethod
	// Percentile in (0, 100], used by CalibPercentile; 0 defaults to 99.9.
	Percentile float64
}

func (c CalibConfig) percentile() float64 {
	if c.Percentile <= 0 || c.Percentile > 100 {
		return 99.9
	}
	return c.Percentile
}

// calibMaxSamples bounds the per-tensor sample buffer of the percentile
// calibrator. When full, the buffer is decimated (every other kept sample)
// and the keep stride doubled — deterministic, bounded, and still an
// unbiased-enough sketch of the distribution for range selection.
const calibMaxSamples = 1 << 16

// observer accumulates one tensor's activation statistics over the
// calibration set. The max-abs may be fed concurrently, in any order: the
// bits of float32s ≥ +0 order as their values do, so a compare-and-swap on
// them keeps the maximum exact. The percentile sketch must be fed in order.
type observer struct {
	method  CalibMethod
	maxAbs  atomic.Uint32 // float32 bits
	samples []float32     // absolute values, stride-subsampled (percentile only)
	stride  int
	phase   int
}

func newObserver(m CalibMethod) *observer { return &observer{method: m, stride: 1} }

func (o *observer) observe(data []float32) {
	a := math.Float32bits(tensor.MaxAbsFinite(data))
	for old := o.maxAbs.Load(); a > old; old = o.maxAbs.Load() {
		if o.maxAbs.CompareAndSwap(old, a) {
			break
		}
	}
	if o.method != CalibPercentile {
		return
	}
	for _, v := range data {
		if o.phase++; o.phase < o.stride {
			continue
		}
		o.phase = 0
		a := v
		if a < 0 {
			a = -a
		}
		if !(a <= math.MaxFloat32) { // NaN or +Inf
			continue
		}
		o.samples = append(o.samples, a)
		if len(o.samples) == calibMaxSamples {
			keep := o.samples[:0]
			for i := 0; i < len(o.samples); i += 2 {
				keep = append(keep, o.samples[i])
			}
			o.samples = keep
			o.stride *= 2
		}
	}
}

// clip returns the calibrated clipping value (the max-abs analog), falling
// back to max-abs when the percentile sketch is empty.
func (o *observer) clip(pct float64) float32 {
	if o.method != CalibPercentile || len(o.samples) == 0 {
		return math.Float32frombits(o.maxAbs.Load())
	}
	slices.Sort(o.samples)
	idx := int(math.Ceil(pct/100*float64(len(o.samples)))) - 1
	return o.samples[min(max(idx, 0), len(o.samples)-1)]
}

// int8Scale converts a clipping value to the symmetric int8 scale,
// guaranteeing a finite positive result (degenerate inputs -> 1, matching
// Calibrate).
func int8Scale(clip float32) float32 {
	s := clip / 127
	if !(s > 0) || math.IsInf(float64(s), 0) {
		return 1
	}
	return s
}

// ActivationScales holds the per-tensor int8 scales produced by activation
// calibration: one for the graph input and one per node output.
type ActivationScales struct {
	Input float32
	Node  []float32
}

// CalibrateActivations runs g in eval mode over the calibration batches and
// returns symmetric int8 scales for the graph input and every node output
// the unit-per-node plan — nn.Compile under unitMask(g, force), force marking
// the nodes that stay float; nil marks none — materialises, every map the
// int8 engine scales among them (a BatchNorm or ReLU computed inside its
// convolution's GEMM store reads scale 1). Per-tensor activation scales with
// per-output-channel weight scales is the standard post-training int8 recipe:
// feature maps share one grid because the next layer's GEMM consumes them
// whole; each weight channel's scale folds into its requantize multiplier.
//
// It observes a float plan in place (nn.Plan.Run, one lane), compiled once
// per sample shape: no hook, no feature map allocated. Max-abs runs the
// inference plan compiled under force alone, whose Bundle steps feed the
// depth-wise and pre-pool maps to the running maxima band by band, never
// whole; a maximum does not depend on the pieces or their order. The
// percentile sketch does, so it runs the plan compiled under unitMask, every
// map it scales shown whole, sample after sample. Either way the scales are
// those of the batched layer walk, which the plan equals bit for bit. A graph
// with an FMHook, or with a layer kind the plan does not lower, is walked
// layer by layer, whole batches at a time, every node's tensor observed as
// the hook, if any, left it.
func CalibrateActivations(g *nn.Graph, batches []*tensor.Tensor, cfg CalibConfig, force []bool) (ActivationScales, error) {
	if len(batches) == 0 {
		return ActivationScales{}, fmt.Errorf("quant: calibration needs at least one batch")
	}
	mask := force
	if cfg.Method == CalibPercentile {
		mask = unitMask(g, force)
	}
	inObs := newObserver(cfg.Method)
	obs := make([]*observer, len(g.Nodes))
	for i := range obs {
		obs[i] = newObserver(cfg.Method)
	}
	observe := func(i int, data []float32) { obs[i].observe(data) }
	plans := map[string]*nn.Plan{} // by sample shape
	for _, b := range batches {
		inObs.observe(b.Data)
		shape := fmt.Sprint(b.Shape()[1:])
		if plans[shape] == nil {
			plans[shape] = nn.Compile(g, b.Shape(), mask)
		}
		plans[shape].Run(b, observe)
	}
	pct := cfg.percentile()
	out := ActivationScales{
		Input: int8Scale(inObs.clip(pct)),
		Node:  make([]float32, len(g.Nodes)),
	}
	for i, o := range obs {
		out.Node[i] = int8Scale(o.clip(pct))
	}
	return out, nil
}

// QuantizeWeightsPerChannel quantizes a row-major [rows, cols] weight
// matrix symmetrically with one scale per row (per output channel). All-zero
// or non-finite rows get scale 1 and zero codes.
func QuantizeWeightsPerChannel(w []float32, rows, cols int) ([]int8, []float32) {
	if len(w) < rows*cols {
		panic("quant: QuantizeWeightsPerChannel weight slice shorter than rows*cols")
	}
	codes := make([]int8, rows*cols)
	scales := make([]float32, rows)
	for r := 0; r < rows; r++ {
		row := w[r*cols : (r+1)*cols]
		s := int8Scale(tensor.MaxAbsFinite(row))
		scales[r] = s
		for c, v := range row {
			codes[r*cols+c] = quantizeCode(v, s)
		}
	}
	return codes, scales
}

// quantizeCode maps one float value onto the symmetric int8 grid with the
// given scale. Non-finite values saturate (NaN -> 0).
//
//skynet:hotpath
func quantizeCode(v, scale float32) int8 {
	return clampCode(math.RoundToEven(float64(v) / float64(scale)))
}
