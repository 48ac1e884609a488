package track

import (
	"math"
	"math/rand"

	"skynet/internal/dataset"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// Pair is one training sample: an exemplar crop, a (jittered) search crop,
// and the supervision targets in response-grid coordinates.
type Pair struct {
	Exemplar *tensor.Tensor // [3,E,E]
	Search   *tensor.Tensor // [3,S,S]
	CellY    int
	CellX    int
	SubX     float32 // sub-cell center offset, in cells
	SubY     float32
	TW       float32 // log size ratios vs the nominal fraction
	TH       float32
	MaskGT   *tensor.Tensor // [1,M,M] target mask patch (nil without masks)
}

// MakePair builds a training pair from frames i and j of a sequence. The
// search window is centered near — but deliberately not exactly on — the
// target, so the classifier must localize. A geometry the tracker cannot
// step is an error (see work).
func (t *Tracker) MakePair(seq dataset.Sequence, i, j int, rng *rand.Rand) (Pair, error) {
	w, err := t.work()
	if err != nil {
		return Pair{}, err
	}
	r := w.r
	t.free.Put(w)
	bi, bj := seq.Boxes[i], seq.Boxes[j]
	imgH, imgW := seq.Frames[j].Dim(1), seq.Frames[j].Dim(2)
	exemplar := t.ExemplarCrop(seq.Frames[i], bi)

	// Jitter the window over the full response field so the classifier
	// must localize rather than learn a center prior (a center shortcut
	// makes the tracker diverge as drift accumulates at inference).
	side := searchSidePixels(bj, imgH, imgW)
	jx := (rng.Float64()*2 - 1) * 0.25 * side / float64(imgW)
	jy := (rng.Float64()*2 - 1) * 0.25 * side / float64(imgH)
	cx, cy := bj.CX+jx, bj.CY+jy
	search, _ := t.SearchCrop(seq.Frames[j], bj, cx, cy)
	s := float64(t.Cfg.SearchSize)
	// Target center offset from the crop center, in resized-crop pixels.
	offX := (bj.CX - cx) * float64(imgW) * s / side
	offY := (bj.CY - cy) * float64(imgH) * s / side
	cellFX := offX/float64(t.Cfg.Stride) + float64(r-1)/2
	cellFY := offY/float64(t.Cfg.Stride) + float64(r-1)/2
	cellX := clampIdx(int(math.Round(cellFX)), r)
	cellY := clampIdx(int(math.Round(cellFY)), r)

	wFrac := bj.W * float64(imgW) / side
	hFrac := bj.H * float64(imgH) / side
	p := Pair{
		Exemplar: exemplar, Search: search,
		CellY: cellY, CellX: cellX,
		SubX: float32(cellFX - float64(cellX)),
		SubY: float32(cellFY - float64(cellY)),
		TW:   float32(math.Log(math.Max(wFrac, 1e-4) / nominalFrac)),
		TH:   float32(math.Log(math.Max(hFrac, 1e-4) / nominalFrac)),
	}
	if t.Cfg.WithMask {
		// The mask patch covers the exemplar-window footprint around the
		// target in frame j.
		mask := crop(seq.Masks[j], bj.CX, bj.CY, side/2, t.Cfg.MaskSize)
		p.MaskGT = mask
	}
	return p, nil
}

func clampIdx(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// Step runs one training step on a pair and returns the total loss. The
// exemplar branch runs as an inference step runs it, on a workspace, as a
// frozen template; gradients flow through the search branch — the
// search-branch graph's training walk — into the shared backbone (a standard
// Siamese training simplification: EXPERIMENTS.md, known deviation 3). A
// geometry the tracker cannot step is an error, and changes no parameter.
func (t *Tracker) Step(p Pair, opt *nn.SGD) (float32, error) {
	w, err := t.work()
	if err != nil {
		return 0, err
	}
	w.z.plan.RunInto(w.z.adj, p.Exemplar.Reshape(1, p.Exemplar.Dim(0), p.Exemplar.Dim(1), p.Exemplar.Dim(2)), nil)
	zf := w.z.feat.Clone()
	t.free.Put(w)
	xf := t.search.Forward(p.Search.Reshape(1, p.Search.Dim(0), p.Search.Dim(1), p.Search.Dim(2)), true)
	xf = xf.Reshape(xf.Dim(1), xf.Dim(2), xf.Dim(3))
	resp, err := DWXCorrE(zf, xf)
	if err != nil {
		return 0, err
	}
	c, r := resp.Dim(0), resp.Dim(1)
	heads := []*tensor.Tensor{resp.Reshape(1, c, r, r)}
	cls := t.Cls.Forward(heads, true)
	reg := t.Reg.Forward(heads, true)

	total := float32(0)
	// Classification: balanced BCE over the response grid.
	clsGrad := tensor.New(cls.Shape()...)
	nNeg := float32(r*r - 1)
	for y := 0; y < r; y++ {
		for x := 0; x < r; x++ {
			z := cls.At(0, 0, y, x)
			target, weight := float32(0), 0.5/nNeg
			if y == p.CellY && x == p.CellX {
				target, weight = 1, 0.5
			}
			zf64 := float64(z)
			total += weight * float32(math.Max(zf64, 0)-zf64*float64(target)+math.Log1p(math.Exp(-math.Abs(zf64))))
			clsGrad.Set(weight*(nn.Sigmoid(z)-target), 0, 0, y, x)
		}
	}
	// Regression: MSE at the positive cell.
	regGrad := tensor.New(reg.Shape()...)
	targets := [4]float32{p.SubX, p.SubY, p.TW, p.TH}
	const regW = 0.5
	for k := 0; k < 4; k++ {
		d := reg.At(0, k, p.CellY, p.CellX) - targets[k]
		total += regW * d * d
		regGrad.Set(2*regW*d, 0, k, p.CellY, p.CellX)
	}
	dresp := t.Cls.Backward(heads, clsGrad)[0]
	dresp.AddInPlace(t.Reg.Backward(heads, regGrad)[0])
	// Mask branch (SiamMask): BCE of the peak-cell mask patch.
	if t.Mask != nil && p.MaskGT != nil {
		m := t.Cfg.MaskSize
		maskOut := t.Mask.Forward(heads, true)
		maskGrad := tensor.New(maskOut.Shape()...)
		const maskW = 0.5
		inv := maskW / float32(m*m)
		for k := 0; k < m*m; k++ {
			z := maskOut.At(0, k, p.CellY, p.CellX)
			target := p.MaskGT.Data[k]
			zf64 := float64(z)
			total += inv * float32(math.Max(zf64, 0)-zf64*float64(target)+math.Log1p(math.Exp(-math.Abs(zf64))))
			maskGrad.Set(inv*(nn.Sigmoid(z)-target), 0, k, p.CellY, p.CellX)
		}
		dresp.AddInPlace(t.Mask.Backward(heads, maskGrad)[0])
	}
	dxf, err := DWXCorrBackward(zf, xf, dresp.Reshape(c, r, r))
	if err != nil {
		return 0, err
	}
	t.search.Backward(dxf.Reshape(1, c, xf.Dim(1), xf.Dim(2)))
	nn.ClipGradNorm(t.Params(), 5)
	opt.Step(t.Params())
	return total, nil
}

// TrainConfig controls tracker training: SGD at momentum 0.9, no weight
// decay.
type TrainConfig struct {
	Steps int
	LR    float32
	Seed  int64
	// Progress, if non-nil, receives the running mean loss every 50 steps.
	Progress func(step int, loss float64)
}

// Train fits the tracker on pairs sampled from the sequences and returns
// the mean loss over the final quarter of training, or the first error a
// pair or a step gave.
func (t *Tracker) Train(seqs []dataset.Sequence, cfg TrainConfig) (float64, error) {
	if cfg.LR == 0 {
		cfg.LR = 0.005
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewSGD(cfg.LR, 0.9, 0)
	var tail float64
	var tailN int
	var running float64
	for step := 0; step < cfg.Steps; step++ {
		seq := seqs[rng.Intn(len(seqs))]
		i := rng.Intn(seq.Len())
		j := rng.Intn(seq.Len())
		if i > j {
			i, j = j, i
		}
		p, err := t.MakePair(seq, i, j, rng)
		if err != nil {
			return 0, err
		}
		l, err := t.Step(p, opt)
		if err != nil {
			return 0, err
		}
		loss := float64(l)
		running += loss
		if step >= cfg.Steps*3/4 {
			tail += loss
			tailN++
		}
		if cfg.Progress != nil && (step+1)%50 == 0 {
			cfg.Progress(step+1, running/50)
			running = 0
		}
	}
	if tailN == 0 {
		return 0, nil
	}
	return tail / float64(tailN), nil
}
