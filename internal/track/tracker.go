package track

import (
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

	// Cached feature-map sides, measured from a real backbone forward the
	// first time the geometry is needed (see featSizes).
	fz, fx int
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
// returning [C,fh,fw].
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
// normalized point (cx,cy) to outPx pixels a side. Border replication
// handles out-of-image regions; the window is sampled in the frame, never
// materialised.
func cropAt(img *tensor.Tensor, cx, cy, sidePix float64, outPx int) *tensor.Tensor {
	h, w := img.Dim(1), img.Dim(2)
	side := int(math.Round(sidePix))
	if side < 2 {
		side = 2
	}
	y0 := int(math.Round(cy*float64(h) - float64(side)/2))
	x0 := int(math.Round(cx*float64(w) - float64(side)/2))
	return tensor.CropResize(img, y0, x0, side, side, outPx, outPx)
}

// ExemplarCrop extracts the template crop for a box (half the search
// window, so the target fills about half the template).
func (t *Tracker) ExemplarCrop(img *tensor.Tensor, b detect.Box) *tensor.Tensor {
	side := searchSidePixels(b, img.Dim(1), img.Dim(2)) / 2
	return cropAt(img, b.CX, b.CY, side, t.Cfg.ExemplarSize)
}

// SearchCrop extracts the search crop centered at (cx,cy) sized for box b,
// returning the crop and its pixel side.
func (t *Tracker) SearchCrop(img *tensor.Tensor, b detect.Box, cx, cy float64) (*tensor.Tensor, float64) {
	side := searchSidePixels(b, img.Dim(1), img.Dim(2))
	return cropAt(img, cx, cy, side, t.Cfg.SearchSize), side
}

// featSizes returns the exemplar and search feature-map sides, measured
// once by running zero crops through the backbone. Deriving the geometry
// from the real feature shapes — instead of the old ExemplarSize/Stride
// integer division — keeps the training targets and the response map in
// agreement for every crop side, including ones that are not a multiple of
// the backbone stride (where the division silently disagreed and the
// cross-correlation blew up).
func (t *Tracker) featSizes() (fz, fx int) {
	if t.fz == 0 || t.fx == 0 {
		zf := t.features(tensor.New(3, t.Cfg.ExemplarSize, t.Cfg.ExemplarSize), false)
		t.fz = zf.Dim(1)
		xf := t.features(tensor.New(3, t.Cfg.SearchSize, t.Cfg.SearchSize), false)
		t.fx = xf.Dim(1)
	}
	return t.fz, t.fx
}

// respSize returns the response-map side for the configured geometry.
func (t *Tracker) respSize() int {
	fz, fx := t.featSizes()
	return fx - fz + 1
}
