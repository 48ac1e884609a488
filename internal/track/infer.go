package track

import (
	"fmt"
	"math"
	"time"

	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// Track runs the tracker over a sequence initialized from the first
// frame's ground truth (the GOT-10k one-shot protocol) and returns the
// per-frame IoUs against ground truth for frames 1..N-1.
func (t *Tracker) Track(seq dataset.Sequence) []float64 {
	box := seq.Boxes[0]
	zf := t.features(t.ExemplarCrop(seq.Frames[0], box), false).Clone()
	ious := make([]float64, 0, seq.Len()-1)
	for f := 1; f < seq.Len(); f++ {
		box = t.StepBox(zf, seq.Frames[f], box)
		ious = append(ious, box.IoU(seq.Boxes[f]))
	}
	return ious
}

// StepBox advances the tracked box by one frame given precomputed
// exemplar features. Malformed inputs panic; the tracking service calls
// StepBoxE instead.
func (t *Tracker) StepBox(zf *tensor.Tensor, frame *tensor.Tensor, box detect.Box) detect.Box {
	nb, err := t.StepBoxE(zf, frame, box)
	if err != nil {
		panic(err.Error())
	}
	return nb
}

// checkFrame validates a [3,H,W] frame tensor.
func checkFrame(frame *tensor.Tensor) error {
	if frame == nil || frame.Rank() != 3 {
		return fmt.Errorf("track: frame must be a [C,H,W] tensor, got %v", shapeOf(frame))
	}
	if frame.Dim(0) != 3 {
		return fmt.Errorf("track: frame has %d channels, want 3", frame.Dim(0))
	}
	if frame.Dim(1) < 2 || frame.Dim(2) < 2 {
		return fmt.Errorf("track: frame %v too small to track in", frame.Shape())
	}
	return nil
}

// checkBox validates a tracked box: finite, positive size.
func checkBox(b detect.Box) error {
	for _, v := range [...]float64{b.CX, b.CY, b.W, b.H} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("track: box %+v has a non-finite field", b)
		}
	}
	if b.W <= 0 || b.H <= 0 {
		return fmt.Errorf("track: box %+v has a non-positive size", b)
	}
	return nil
}

func shapeOf(t *tensor.Tensor) []int {
	if t == nil {
		return nil
	}
	return t.Shape()
}

// respPeak is the front half StepBoxE and PeakMaskE share: validate the
// inputs, crop the search window around the box, correlate its features
// against the exemplar's, score the response and find the classification
// peak. It returns the response as a [1,C,r,r] batch for the remaining
// heads, the search window's pixel side, and the peak position.
func (t *Tracker) respPeak(zf, frame *tensor.Tensor, box detect.Box) (resp4 *tensor.Tensor, side float64, py, px int, err error) {
	if err := checkFrame(frame); err != nil {
		return nil, 0, 0, 0, err
	}
	if err := checkBox(box); err != nil {
		return nil, 0, 0, 0, err
	}
	if zf == nil || zf.Rank() != 3 {
		return nil, 0, 0, 0, fmt.Errorf("track: exemplar features must be [C,h,w], got %v", shapeOf(zf))
	}
	crop, side := t.SearchCrop(frame, box, box.CX, box.CY)
	xf := t.features(crop, false)
	resp, err := DWXCorrE(zf, xf)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	c, r := resp.Dim(0), resp.Dim(1)
	resp4 = resp.Reshape(1, c, r, r)
	cls := t.Cls.Forward([]*tensor.Tensor{resp4}, false)
	best := float32(math.Inf(-1))
	for y := 0; y < r; y++ {
		for x := 0; x < r; x++ {
			if v := cls.At(0, 0, y, x); v > best {
				best, py, px = v, y, x
			}
		}
	}
	return resp4, side, py, px, nil
}

// StepBoxE advances the tracked box by one frame given precomputed
// exemplar features, returning an error — never panicking — on malformed
// inputs. This is the tracking service's per-frame entry point: a bad
// session request must become a 400, not kill the service's worker.
func (t *Tracker) StepBoxE(zf *tensor.Tensor, frame *tensor.Tensor, box detect.Box) (detect.Box, error) {
	resp4, side, py, px, err := t.respPeak(zf, frame, box)
	if err != nil {
		return detect.Box{}, err
	}
	imgH, imgW := frame.Dim(1), frame.Dim(2)
	r := resp4.Dim(2)
	reg := t.Reg.Forward([]*tensor.Tensor{resp4}, false)
	dx := clampF(reg.At(0, 0, py, px), -1, 1)
	dy := clampF(reg.At(0, 1, py, px), -1, 1)
	tw := clampF(reg.At(0, 2, py, px), -1, 1)
	th := clampF(reg.At(0, 3, py, px), -1, 1)
	s := float64(t.Cfg.SearchSize)
	scale := side / s // search-crop pixel → image pixel
	offX := (float64(px) + float64(dx) - float64(r-1)/2) * float64(t.Cfg.Stride) * scale
	offY := (float64(py) + float64(dy) - float64(r-1)/2) * float64(t.Cfg.Stride) * scale
	nb := box
	nb.CX = clamp01(box.CX + offX/float64(imgW))
	nb.CY = clamp01(box.CY + offY/float64(imgH))
	// Damped size update from the regression head.
	wNew := nominalFrac * math.Exp(float64(tw)) * side / float64(imgW)
	hNew := nominalFrac * math.Exp(float64(th)) * side / float64(imgH)
	const damp = 0.3
	nb.W = clampSize((1-damp)*box.W + damp*wNew)
	nb.H = clampSize((1-damp)*box.H + damp*hNew)
	return nb.Clip(), nil
}

// PeakMask returns the sigmoid mask patch predicted at the response peak
// for the given frame and box — the SiamMask output of Figure 8.
// Malformed inputs panic; the tracking service calls PeakMaskE instead.
func (t *Tracker) PeakMask(zf *tensor.Tensor, frame *tensor.Tensor, box detect.Box) *tensor.Tensor {
	m, err := t.PeakMaskE(zf, frame, box)
	if err != nil {
		panic(err.Error())
	}
	return m
}

// PeakMaskE is PeakMask with malformed inputs reported as errors.
func (t *Tracker) PeakMaskE(zf *tensor.Tensor, frame *tensor.Tensor, box detect.Box) (*tensor.Tensor, error) {
	if t.Mask == nil {
		return nil, fmt.Errorf("track: PeakMask on a tracker without a mask head")
	}
	resp4, _, py, px, err := t.respPeak(zf, frame, box)
	if err != nil {
		return nil, err
	}
	masks := t.Mask.Forward([]*tensor.Tensor{resp4}, false)
	m := t.Cfg.MaskSize
	out := tensor.New(1, m, m)
	for k := 0; k < m*m; k++ {
		out.Data[k] = nn.Sigmoid(masks.At(0, k, py, px))
	}
	return out, nil
}

// Evaluate runs the GOT-10k protocol over the sequences and returns the
// benchmark metrics plus the measured tracking speed in frames/second.
type EvalResult struct {
	AO     float64
	SR50   float64
	SR75   float64
	FPS    float64
	Frames int
}

// Evaluate tracks every sequence and aggregates AO / SR@0.50 / SR@0.75.
func (t *Tracker) Evaluate(seqs []dataset.Sequence) EvalResult {
	var all []float64
	start := time.Now()
	frames := 0
	for _, seq := range seqs {
		ious := t.Track(seq)
		all = append(all, ious...)
		frames += len(ious)
	}
	elapsed := time.Since(start).Seconds()
	res := EvalResult{AO: AO(all), SR50: SR(all, 0.50), SR75: SR(all, 0.75), Frames: frames}
	if elapsed > 0 {
		res.FPS = float64(frames) / elapsed
	}
	return res
}

// ExemplarFeatures precomputes the template features for a sequence's
// first frame, for callers driving step/PeakMask manually.
func (t *Tracker) ExemplarFeatures(seq dataset.Sequence) *tensor.Tensor {
	return t.features(t.ExemplarCrop(seq.Frames[0], seq.Boxes[0]), false).Clone()
}

// ExemplarFeaturesFor fixes a template from one frame and its box — the
// session-start entry point of the tracking service. The returned tensor
// owns its data and stays valid across later forwards.
func (t *Tracker) ExemplarFeaturesFor(frame *tensor.Tensor, box detect.Box) (*tensor.Tensor, error) {
	if err := checkFrame(frame); err != nil {
		return nil, err
	}
	if err := checkBox(box); err != nil {
		return nil, err
	}
	return t.features(t.ExemplarCrop(frame, box), false).Clone(), nil
}

func clampF(v, lo, hi float32) float32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func clampSize(v float64) float64 {
	if v < 0.02 {
		return 0.02
	}
	if v > 0.8 {
		return 0.8
	}
	return v
}

// CropForMaskGT exposes the ground-truth mask patch geometry used in
// training, for mask-quality evaluation.
func (t *Tracker) CropForMaskGT(seq dataset.Sequence, f int) *tensor.Tensor {
	b := seq.Boxes[f]
	side := searchSidePixels(b, seq.Frames[f].Dim(1), seq.Frames[f].Dim(2))
	return cropAt(seq.Masks[f], b.CX, b.CY, side/2, t.Cfg.MaskSize)
}
