package track

import (
	"fmt"
	"math"
	"math/rand"

	"skynet/internal/detect"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// Config sizes the tracker. The paper trains SkyNet with 128-pixel
// exemplars and 256-pixel search regions; the defaults here are the same
// geometry scaled 4× down for CPU-budget experiments.
type Config struct {
	ExemplarSize int // exemplar crop side in pixels
	SearchSize   int // search crop side in pixels (2× exemplar)
	FeatC        int // common feature width after the adjust layer
	Stride       int // backbone total stride
	WithMask     bool
	MaskSize     int // side of the predicted mask patch
	Seed         int64
}

// DefaultConfig returns the CPU-scale tracker geometry.
func DefaultConfig() Config {
	return Config{ExemplarSize: 32, SearchSize: 64, FeatC: 32, Stride: 8,
		MaskSize: 16, Seed: 1}
}

// nominalFrac is the expected target width as a fraction of the search
// window under the crop geometry (target ≈ half the exemplar window, the
// exemplar window is half the search window).
const nominalFrac = 0.25

// Tracker is a Siamese tracker: a shared backbone and adjust layer feed a
// depth-wise cross-correlation whose response drives classification, box
// regression, and optionally mask heads. With the mask head enabled it is
// the SiamMask-style variant; without, the SiamRPN++-style variant.
type Tracker struct {
	Cfg      Config
	Backbone *nn.Graph
	Adjust   *nn.Conv2D
	Cls      *nn.Conv2D
	Reg      *nn.Conv2D
	Mask     *nn.Conv2D

	ws *workspace // the inference step's buffers (see work)
}

// New builds a tracker around a headless backbone with the given output
// channel count.
func New(backbone *nn.Graph, backboneC int, cfg Config) *Tracker {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Tracker{
		Cfg:      cfg,
		Backbone: backbone,
		Adjust:   nn.NewPWConv1(rng, backboneC, cfg.FeatC, true),
		Cls:      nn.NewPWConv1(rng, cfg.FeatC, 1, true),
		Reg:      nn.NewPWConv1(rng, cfg.FeatC, 4, true),
	}
	if cfg.WithMask {
		t.Mask = nn.NewPWConv1(rng, cfg.FeatC, cfg.MaskSize*cfg.MaskSize, true)
	}
	return t
}

// Params returns every trainable parameter of the tracker.
func (t *Tracker) Params() []*nn.Param {
	ps := append([]*nn.Param{}, t.Backbone.Params()...)
	ps = append(ps, t.Adjust.Params()...)
	ps = append(ps, t.Cls.Params()...)
	ps = append(ps, t.Reg.Params()...)
	if t.Mask != nil {
		ps = append(ps, t.Mask.Params()...)
	}
	return ps
}

// features runs one [3,s,s] crop through the backbone and adjust layer,
// returning [C,fh,fw] in fresh tensors: the training forward, whose outputs
// Backward holds (inference steps run forward, into the workspace).
func (t *Tracker) features(crop *tensor.Tensor, train bool) *tensor.Tensor {
	x := crop.Reshape(1, crop.Dim(0), crop.Dim(1), crop.Dim(2))
	f := t.Backbone.Forward(x, train)
	f = t.Adjust.Forward([]*tensor.Tensor{f}, train)
	return f.Reshape(f.Dim(1), f.Dim(2), f.Dim(3))
}

// searchSidePixels returns the pixel side of the square search window for
// a box in an image of pixel size (imgH, imgW): 4× the target's larger
// dimension, so the exemplar window (half of it) gives the target ~2×
// context, the SiamFC-family convention.
//
//skynet:hotpath
func searchSidePixels(b detect.Box, imgH, imgW int) float64 {
	wPix := b.W * float64(imgW)
	hPix := b.H * float64(imgH)
	m := math.Max(wPix, hPix)
	if m < 4 {
		m = 4
	}
	return 4 * m // 2× the exemplar window, which is 2× the target
}

// cropAt resamples the square window of `sidePix` pixels centered at the
// normalized point (cx,cy) into dst, a [C,s,s] crop, through the column-tap
// table cols (at least s long). Border replication handles out-of-image
// regions; the window is sampled in the frame, never materialised.
//
//skynet:hotpath
func cropAt(dst, img *tensor.Tensor, cx, cy, sidePix float64, cols tensor.ColTaps) {
	h, w := img.Dim(1), img.Dim(2)
	side := int(math.Round(sidePix))
	if side < 2 {
		side = 2
	}
	y0 := int(math.Round(cy*float64(h) - float64(side)/2))
	x0 := int(math.Round(cx*float64(w) - float64(side)/2))
	tensor.CropResizeInto(dst, img, y0, x0, side, side, cols)
}

// crop is cropAt into a fresh [C,outPx,outPx] tensor.
func crop(img *tensor.Tensor, cx, cy, sidePix float64, outPx int) *tensor.Tensor {
	out := tensor.New(img.Dim(0), outPx, outPx)
	cropAt(out, img, cx, cy, sidePix, make(tensor.ColTaps, outPx))
	return out
}

// ExemplarCrop extracts the template crop for a box (half the search
// window, so the target fills about half the template).
func (t *Tracker) ExemplarCrop(img *tensor.Tensor, b detect.Box) *tensor.Tensor {
	side := searchSidePixels(b, img.Dim(1), img.Dim(2)) / 2
	return crop(img, b.CX, b.CY, side, t.Cfg.ExemplarSize)
}

// SearchCrop extracts the search crop centered at (cx,cy) sized for box b,
// returning the crop and its pixel side.
func (t *Tracker) SearchCrop(img *tensor.Tensor, b detect.Box, cx, cy float64) (*tensor.Tensor, float64) {
	side := searchSidePixels(b, img.Dim(1), img.Dim(2))
	return crop(img, cx, cy, side, t.Cfg.SearchSize), side
}

// workspace is what an inference step writes: each branch's crop, backbone
// and adjust outputs, the response and the head maps, with the batch-of-one
// and per-sample views the steps read them through. It is sized for one
// geometry — the config and backbone it was built for — and every step on
// that geometry reuses it, whatever the frame size, so a step allocates
// nothing. Training forwards never write it: Backward holds their outputs.
type workspace struct {
	cfg   Config
	plans *nn.PlanCache  // the backbone's executor: both branches' plans, on one arena
	z, x  branch         // the exemplar's and the search region's
	cols  tensor.ColTaps // the crop's column taps, as wide as the wider crop
	r     int            // the response side
	resp  *tensor.Tensor // [C,r,r]
	resp4 *tensor.Tensor // resp as a batch of one, for the heads
	cls   *tensor.Tensor // [1,1,r,r]
	reg   *tensor.Tensor // [1,4,r,r]
	mask  *tensor.Tensor // [1,M²,r,r], with a mask head
}

// branch is the forward of one crop size: the crop, the backbone's plan for
// it (on the workspace's executor) and its output, and the adjust layer's.
type branch struct {
	crop  *tensor.Tensor // [3,s,s]
	crop4 *tensor.Tensor // crop as a batch of one
	plan  *nn.Plan
	bb    *tensor.Tensor // [1,Cb,f,f]
	adj   *tensor.Tensor // [1,C,f,f]
	feat  *tensor.Tensor // adj as [C,f,f]
}

// newBranch builds the branch for s-pixel crops. The feature side is the
// compiled plan's output shape — not the crop side divided by the stride,
// which disagrees with the backbone for sides that are not a multiple of it.
func (t *Tracker) newBranch(plans *nn.PlanCache, s int) branch {
	b := branch{crop: tensor.New(3, s, s)}
	b.crop4 = b.crop.Reshape(1, 3, s, s)
	b.plan = plans.For(b.crop4.Shape())
	b.bb = tensor.New(b.plan.OutShape(1)...)
	fh, fw := b.bb.Dim(2), b.bb.Dim(3)
	b.adj = tensor.New(1, t.Adjust.OutC, fh, fw)
	b.feat = b.adj.Reshape(t.Adjust.OutC, fh, fw)
	return b
}

// work returns the step workspace, building it on first use and again when
// the config or the backbone changed.
func (t *Tracker) work() (*workspace, error) {
	if w := t.ws; w != nil && w.cfg == t.Cfg && w.plans.Graph() == t.Backbone {
		return w, nil
	}
	w := &workspace{cfg: t.Cfg, plans: nn.NewPlanCache(t.Backbone, nil),
		cols: make(tensor.ColTaps, max(t.Cfg.ExemplarSize, t.Cfg.SearchSize))}
	w.z, w.x = t.newBranch(w.plans, t.Cfg.ExemplarSize), t.newBranch(w.plans, t.Cfg.SearchSize)
	if w.r = w.x.feat.Dim(1) - w.z.feat.Dim(1) + 1; w.r < 1 {
		return nil, fmt.Errorf("track: exemplar features %v larger than search features %v", w.z.feat.Shape(), w.x.feat.Shape())
	}
	c := t.Adjust.OutC
	w.resp = tensor.New(c, w.r, w.r)
	w.resp4 = w.resp.Reshape(1, c, w.r, w.r)
	w.cls = tensor.New(1, t.Cls.OutC, w.r, w.r)
	w.reg = tensor.New(1, t.Reg.OutC, w.r, w.r)
	if t.Mask != nil {
		w.mask = tensor.New(1, t.Mask.OutC, w.r, w.r)
	}
	t.ws = w
	return w, nil
}

// forward runs b's crop through the backbone and adjust layer into b's
// feature buffers.
//
//skynet:hotpath
func (t *Tracker) forward(b *branch) {
	b.plan.RunInto(b.bb, b.crop4, nil)
	t.Adjust.ForwardInto(b.adj, b.bb)
}

// respSize returns the response-map side for the configured geometry.
func (t *Tracker) respSize() int {
	w, err := t.work()
	if err != nil {
		panic(err.Error())
	}
	return w.r
}
