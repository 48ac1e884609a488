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
// per-frame IoUs against ground truth for frames 1..N-1, or the first error
// a step gave.
func (t *Tracker) Track(seq dataset.Sequence) ([]float64, error) {
	box := seq.Boxes[0]
	zf, err := t.ExemplarFeaturesFor(seq.Frames[0], box)
	if err != nil {
		return nil, err
	}
	ious := make([]float64, 0, seq.Len()-1)
	for f := 1; f < seq.Len(); f++ {
		if box, err = t.StepBoxE(zf, seq.Frames[f], box); err != nil {
			return nil, fmt.Errorf("frame %d: %w", f, err)
		}
		ious = append(ious, box.IoU(seq.Boxes[f]))
	}
	return ious, nil
}

// checkFrame validates a [3,H,W] frame tensor.
//
//skynet:hotpath
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
//
//skynet:hotpath
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

// finite reports whether every element of data is finite.
func finite(data []float32) bool {
	for _, v := range data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

//skynet:hotpath
func shapeOf(t *tensor.Tensor) []int {
	if t == nil {
		return nil
	}
	return t.Shape()
}

// respPeak is StepE's front half: validate the inputs, crop the search
// window around the box, correlate its features against the exemplar's,
// score the response and find the classification peak — all in the
// workspace w, which it leaves holding the response for the remaining heads.
// It returns the search window's pixel side and the peak position.
//
//skynet:hotpath
func (t *Tracker) respPeak(w *workspace, zf, frame *tensor.Tensor, box detect.Box) (side float64, py, px int, err error) {
	if err := checkFrame(frame); err != nil {
		return 0, 0, 0, err
	}
	if err := checkBox(box); err != nil {
		return 0, 0, 0, err
	}
	if zf == nil || zf.Rank() != 3 {
		return 0, 0, 0, fmt.Errorf("track: exemplar features must be [C,h,w], got %v", shapeOf(zf))
	}
	side = searchSidePixels(box, frame.Dim(1), frame.Dim(2))
	cropAt(w.x.crop, frame, box.CX, box.CY, side, w.cols)
	w.x.plan.RunInto(w.x.adj, w.x.crop4, nil)
	if err := DWXCorrInto(w.resp, zf, w.x.feat); err != nil {
		return 0, 0, 0, err
	}
	best := float32(math.Inf(-1))
	for i, v := range w.head(0) {
		if v > best {
			best, py, px = v, i/w.r, i%w.r
		}
	}
	return side, py, px, nil
}

// StepBoxE advances the tracked box by one frame given precomputed
// exemplar features: StepE without the mask.
func (t *Tracker) StepBoxE(zf *tensor.Tensor, frame *tensor.Tensor, box detect.Box) (detect.Box, error) {
	nb, _, err := t.StepE(zf, frame, box, false)
	return nb, err
}

// StepE advances the tracked box by one frame given precomputed exemplar
// features and, with mask, also returns the sigmoid mask patch predicted at
// the same response peak — the SiamMask output of Figure 8 — from one pass
// of the front half. Malformed inputs, a mask asked of a tracker without a
// mask head, and a frame that drives the forward to a non-finite box or mask
// (finite pixels can overflow it) are errors, never panics. This is the
// tracking service's per-frame entry point: a bad session request must
// become a 400, not kill the service's worker or poison the session. Every
// map of the step is a workspace's off the tracker's free list, so once one is
// built a step allocates nothing but the mask patch it returns.
func (t *Tracker) StepE(zf *tensor.Tensor, frame *tensor.Tensor, box detect.Box, mask bool) (detect.Box, *tensor.Tensor, error) {
	if mask && t.Mask == nil {
		return detect.Box{}, nil, fmt.Errorf("track: mask asked of a tracker without a mask head")
	}
	w, err := t.work()
	if err != nil {
		return detect.Box{}, nil, err
	}
	defer t.free.Put(w)
	side, py, px, err := t.respPeak(w, zf, frame, box)
	if err != nil {
		return detect.Box{}, nil, err
	}
	var m *tensor.Tensor
	if mask {
		if m = t.peakMask(w, py, px); !finite(m.Data) {
			return detect.Box{}, nil, fmt.Errorf("track: the frame drove the mask to non-finite values")
		}
	}
	imgH, imgW := frame.Dim(1), frame.Dim(2)
	r, reg := w.r, w.head(1)
	at := py*r + px
	dx := clampF(reg[at], -1, 1)
	dy := clampF(reg[r*r+at], -1, 1)
	tw := clampF(reg[2*r*r+at], -1, 1)
	th := clampF(reg[3*r*r+at], -1, 1)
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
	nb = nb.Clip()
	if err := checkBox(nb); err != nil {
		return detect.Box{}, nil, fmt.Errorf("track: the frame drove the step to a bad box: %v", err)
	}
	return nb, m, nil
}

// peakMask runs the mask head on the response in w and returns the sigmoid
// patch at the peak (py, px), a fresh tensor that is the caller's.
func (t *Tracker) peakMask(w *workspace, py, px int) *tensor.Tensor {
	masks, m, rr := w.head(2), t.Cfg.MaskSize, w.r*w.r
	out := tensor.New(1, m, m)
	for k := range out.Data {
		out.Data[k] = nn.Sigmoid(masks[k*rr+py*w.r+px])
	}
	return out
}

// EvalResult is what Evaluate measures: the GOT-10k metrics plus the
// tracking speed in frames/second.
type EvalResult struct {
	AO     float64
	SR50   float64
	SR75   float64
	FPS    float64
	Frames int
}

// Evaluate tracks every sequence and aggregates AO / SR@0.50 / SR@0.75, or
// returns the first error a sequence gave.
func (t *Tracker) Evaluate(seqs []dataset.Sequence) (EvalResult, error) {
	var all []float64
	start := time.Now()
	frames := 0
	for i, seq := range seqs {
		ious, err := t.Track(seq)
		if err != nil {
			return EvalResult{}, fmt.Errorf("sequence %d: %w", i, err)
		}
		all = append(all, ious...)
		frames += len(ious)
	}
	elapsed := time.Since(start).Seconds()
	res := EvalResult{AO: AO(all), SR50: SR(all, 0.50), SR75: SR(all, 0.75), Frames: frames}
	if elapsed > 0 {
		res.FPS = float64(frames) / elapsed
	}
	return res, nil
}

// ExemplarFeaturesFor fixes a template from one frame and its box — the
// session-start entry point of the tracking service. The crop and forward
// run in a step workspace; the returned tensor is a copy of its features
// that owns its data and stays valid across later forwards, and is all the
// call allocates. A frame that drives the features to non-finite
// values is an error, as are malformed inputs.
func (t *Tracker) ExemplarFeaturesFor(frame *tensor.Tensor, box detect.Box) (*tensor.Tensor, error) {
	if err := checkFrame(frame); err != nil {
		return nil, err
	}
	if err := checkBox(box); err != nil {
		return nil, err
	}
	w, err := t.work()
	if err != nil {
		return nil, err
	}
	defer t.free.Put(w)
	cropAt(w.z.crop, frame, box.CX, box.CY, searchSidePixels(box, frame.Dim(1), frame.Dim(2))/2, w.cols)
	w.z.plan.RunInto(w.z.adj, w.z.crop4, nil)
	if !finite(w.z.feat.Data) {
		return nil, fmt.Errorf("track: the frame drove the template features to non-finite values")
	}
	return w.z.feat.Clone(), nil
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
