package detect

import (
	"math/rand"

	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// Model is anything that maps an input batch to raw head predictions —
// satisfied by *nn.Graph.
type Model interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
}

var _ Model = (*nn.Graph)(nil)

// Sample pairs one input image with its ground-truth box.
type Sample struct {
	Image *tensor.Tensor // [C,H,W]
	Box   Box
}

// Batch stacks the images of samples[lo:hi] into one [N,C,H,W] tensor and
// returns the corresponding boxes.
func Batch(samples []Sample, lo, hi int) (*tensor.Tensor, []Box) {
	n := hi - lo
	c, h, w := samples[lo].Image.Dim(0), samples[lo].Image.Dim(1), samples[lo].Image.Dim(2)
	x := tensor.New(n, c, h, w)
	boxes := make([]Box, n)
	per := c * h * w
	for i := 0; i < n; i++ {
		s := samples[lo+i]
		copy(x.Data[i*per:(i+1)*per], s.Image.Data)
		boxes[i] = s.Box
	}
	return x, boxes
}

// Batches stacks the images of samples into consecutive batches of size,
// the last one short if size does not divide them — the calibration set
// quant.Export takes.
func Batches(samples []Sample, size int) []*tensor.Tensor {
	var out []*tensor.Tensor
	for lo := 0; lo < len(samples); lo += size {
		x, _ := Batch(samples, lo, min(lo+size, len(samples)))
		out = append(out, x)
	}
	return out
}

// MeanIoU evaluates the model on the samples and returns the DAC-SDC
// accuracy metric R_IoU (Equation 2): the mean IoU between the single
// predicted box and the ground truth over the whole set. An empty sample
// slice scores 0 — the metric rewards correct detections, and there are
// none — rather than the 0/0 NaN of the raw mean.
func MeanIoU(m Model, head *Head, samples []Sample, batchSize int) float64 {
	if len(samples) == 0 {
		return 0
	}
	if batchSize <= 0 {
		batchSize = 8
	}
	var total float64
	for lo := 0; lo < len(samples); lo += batchSize {
		hi := lo + batchSize
		if hi > len(samples) {
			hi = len(samples)
		}
		x, gts := Batch(samples, lo, hi)
		pred := m.Forward(x, false)
		boxes, _ := head.Decode(pred)
		for i, b := range boxes {
			total += b.IoU(gts[i])
		}
	}
	return total / float64(len(samples))
}

// TrainConfig controls TrainDetector.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        nn.LRSchedule
	// Scales enables the paper's multi-scale training (§6.1): each epoch
	// draws one (H, W) pair from this list and bilinearly resizes every
	// training image to it. Empty trains at the native resolution. The
	// network must be fully convolutional (SkyNet is), and each scale must
	// be a multiple of the backbone stride.
	Scales [][2]int
	// Augment, if non-nil, is applied to every sample each epoch (the
	// distort/jitter/crop augmentation of §6.1).
	Augment func(Sample) Sample
	// Progress, if non-nil, is called after each epoch with the mean
	// training loss.
	Progress func(epoch int, loss float64)
}

// TrainDetector trains graph+head on the samples with SGD, following the
// paper's §6.1 recipe shape: momentum 0.9 and no weight decay, a
// geometrically decaying learning rate, each step's gradients clipped to a
// global norm of 5, optional multi-scale training (each epoch's scale drawn
// from a generator seeded with 7), and optional augmentation. Returns the
// final mean training loss. With no samples (or zero epochs) there are
// no optimization steps and no batches to average over, so the reported
// loss is 0 rather than the 0/0 NaN of an empty mean.
func TrainDetector(g *nn.Graph, head *Head, samples []Sample, cfg TrainConfig) float64 {
	if len(samples) == 0 {
		return 0
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 8
	}
	scaleRNG := rand.New(rand.NewSource(7))
	opt := nn.NewSGD(cfg.LR.Start, 0.9, 0)
	params := g.Params()
	var last float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		opt.LR = cfg.LR.At(epoch)
		epochSamples := samples
		if cfg.Augment != nil {
			epochSamples = make([]Sample, len(samples))
			for i, s := range samples {
				epochSamples[i] = cfg.Augment(s)
			}
		}
		if len(cfg.Scales) > 0 {
			scale := cfg.Scales[scaleRNG.Intn(len(cfg.Scales))]
			resized := make([]Sample, len(epochSamples))
			for i, s := range epochSamples {
				resized[i] = Sample{
					Image: tensor.BilinearResize(s.Image, scale[0], scale[1]),
					Box:   s.Box, // normalized coordinates are scale-free
				}
			}
			epochSamples = resized
		}
		var sum float64
		var batches int
		for lo := 0; lo < len(epochSamples); lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > len(epochSamples) {
				hi = len(epochSamples)
			}
			x, gts := Batch(epochSamples, lo, hi)
			pred := g.Forward(x, true)
			loss, grad := head.Loss(pred, gts)
			g.Backward(grad)
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
			sum += float64(loss)
			batches++
		}
		last = sum / float64(batches)
		if cfg.Progress != nil {
			cfg.Progress(epoch, last)
		}
	}
	return last
}
