// Package dataset procedurally generates the data the paper's experiments
// consume. The real DAC-SDC dataset (100k UAV images from DJI, hidden 50k
// test set) and GOT-10k videos are not redistributable, so this package
// synthesizes scenes with the properties the paper's design decisions rely
// on: a single object of interest per image, 12 main categories and 95
// sub-categories of object appearance, and — crucially — the bounding-box
// relative-size distribution of Figure 6 (91% of objects below 9% of the
// image area, 31% below 1%), which motivates SkyNet's bypass + reordering
// features for small-object detection.
//
// The generator is fully deterministic from its seed.
package dataset

import (
	"math"
	"math/rand"

	"skynet/internal/detect"
	"skynet/internal/tensor"
)

// Dataset cardinalities matching the DAC-SDC description (§6).
const (
	NumCategories    = 12
	NumSubCategories = 95
)

// Config parameterizes a Generator.
type Config struct {
	W, H int // image width and height in pixels
	// Clutter is the expected number of background distractor shapes per
	// image; the first row of the paper's Figure 7 highlights distinguishing
	// the target from similar objects.
	Clutter float64
	// NoiseStd is the additive pixel noise level.
	NoiseStd float64
	Seed     int64
}

// DefaultConfig returns a small-resolution configuration suitable for
// CPU-only training; the aspect ratio (width ≈ 2×height) follows the
// paper's 160×320 input.
func DefaultConfig() Config {
	return Config{W: 96, H: 48, Clutter: 2, NoiseStd: 0.03, Seed: 1}
}

// Scene is one generated image with its ground truth.
type Scene struct {
	Image       *tensor.Tensor // [3,H,W] in [0,1]
	Box         detect.Box
	Mask        *tensor.Tensor // [1,H,W] object mask in {0,1}
	Category    int
	SubCategory int
}

// Generator produces synthetic UAV-view scenes.
type Generator struct {
	cfg Config
	rng *rand.Rand
}

// NewGenerator returns a generator for the given configuration.
func NewGenerator(cfg Config) *Generator {
	if cfg.W <= 0 || cfg.H <= 0 {
		panic("dataset: non-positive image size")
	}
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// SampleAreaRatio draws a bounding-box-to-image area ratio from the
// Figure 6 distribution: a three-segment log-uniform mixture calibrated so
// that P(ratio < 1%) = 0.31 and P(ratio < 9%) = 0.91.
func SampleAreaRatio(rng *rand.Rand) float64 {
	u := rng.Float64()
	var lo, hi float64
	switch {
	case u < 0.31:
		lo, hi = 0.0004, 0.01
	case u < 0.91:
		lo, hi = 0.01, 0.09
	default:
		lo, hi = 0.09, 0.36
	}
	return logUniform(rng, lo, hi)
}

func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// sampleBox draws a ground-truth box: area from the Figure 6 law, aspect
// ratio in [0.5, 2], position uniform with the box fully inside the image.
func (g *Generator) sampleBox() detect.Box {
	area := SampleAreaRatio(g.rng)
	aspect := logUniform(g.rng, 0.5, 2.0)
	w := math.Sqrt(area * aspect)
	h := math.Sqrt(area / aspect)
	if w > 0.9 {
		w = 0.9
	}
	if h > 0.9 {
		h = 0.9
	}
	// Keep at least 2x2 pixels so the object is renderable.
	minW := 2.0 / float64(g.cfg.W)
	minH := 2.0 / float64(g.cfg.H)
	if w < minW {
		w = minW
	}
	if h < minH {
		h = minH
	}
	cx := w/2 + g.rng.Float64()*(1-w)
	cy := h/2 + g.rng.Float64()*(1-h)
	return detect.Box{CX: cx, CY: cy, W: w, H: h}
}

// Scene generates one image with a single target object plus clutter.
func (g *Generator) Scene() Scene {
	cat := g.rng.Intn(NumCategories)
	sub := g.rng.Intn(NumSubCategories)
	box := g.sampleBox()
	img := tensor.New(3, g.cfg.H, g.cfg.W)
	mask := tensor.New(1, g.cfg.H, g.cfg.W)
	g.paintBackground(img)
	// Distractors: same renderer, different category, no ground truth.
	nClutter := poissonish(g.rng, g.cfg.Clutter)
	for i := 0; i < nClutter; i++ {
		dcat := g.rng.Intn(NumCategories)
		dsub := g.rng.Intn(NumSubCategories)
		g.paintDistractor(img, g.sampleBox(), dcat, dsub)
	}
	g.paintObject(img, mask, box, cat, sub)
	g.addNoise(img)
	return Scene{Image: img, Box: box, Mask: mask, Category: cat, SubCategory: sub}
}

// DetectionSet generates n detection samples (none for n ≤ 0).
func (g *Generator) DetectionSet(n int) []detect.Sample {
	out := make([]detect.Sample, max(n, 0))
	for i := range out {
		s := g.Scene()
		out[i] = detect.Sample{Image: s.Image, Box: s.Box}
	}
	return out
}

// ClassificationSet generates n category-labelled images for the
// classification baselines (Figure 2(a)'s AlexNet-style model). The object
// is rendered large (area ≥ 4% of the image) so category appearance is the
// dominant signal, and sub-category diversity is capped at 16 per category
// so small CPU-budget models can generalize across appearance variants.
func (g *Generator) ClassificationSet(n int) ([]*tensor.Tensor, []int) {
	imgs := make([]*tensor.Tensor, n)
	labels := make([]int, n)
	for i := range imgs {
		cat := g.rng.Intn(NumCategories)
		sub := g.rng.Intn(16)
		box := detect.Box{
			CX: 0.3 + 0.4*g.rng.Float64(),
			CY: 0.3 + 0.4*g.rng.Float64(),
			W:  0.3 + 0.3*g.rng.Float64(),
			H:  0.3 + 0.3*g.rng.Float64(),
		}
		img := tensor.New(3, g.cfg.H, g.cfg.W)
		g.paintBackground(img)
		g.paintObject(img, nil, box, cat, sub)
		g.addNoise(img)
		imgs[i] = img
		labels[i] = cat
	}
	return imgs, labels
}

func poissonish(rng *rand.Rand, mean float64) int {
	// Cheap Poisson approximation: round(mean + noise), clamped at 0.
	n := int(mean + rng.NormFloat64()*math.Sqrt(mean+1e-9) + 0.5)
	if n < 0 {
		return 0
	}
	return n
}

// paintBackground fills img with a smooth low-frequency field resembling
// terrain seen from a UAV.
func (g *Generator) paintBackground(img *tensor.Tensor) {
	h, w := img.Dim(1), img.Dim(2)
	base := [3]float64{0.25 + 0.3*g.rng.Float64(), 0.25 + 0.3*g.rng.Float64(), 0.25 + 0.3*g.rng.Float64()}
	// Three random plane waves per channel give gentle texture.
	type wave struct{ fx, fy, phase, amp float64 }
	waves := make([][3]wave, 3)
	for c := 0; c < 3; c++ {
		for k := 0; k < 3; k++ {
			waves[c][k] = wave{
				fx:    (g.rng.Float64() - 0.5) * 8 * math.Pi,
				fy:    (g.rng.Float64() - 0.5) * 8 * math.Pi,
				phase: g.rng.Float64() * 2 * math.Pi,
				amp:   0.03 + 0.05*g.rng.Float64(),
			}
		}
	}
	for c := 0; c < 3; c++ {
		for y := 0; y < h; y++ {
			fy := float64(y) / float64(h)
			for x := 0; x < w; x++ {
				fx := float64(x) / float64(w)
				v := base[c]
				for _, wv := range waves[c] {
					v += wv.amp * math.Sin(wv.fx*fx+wv.fy*fy+wv.phase)
				}
				img.Set(clamp01f(v), c, y, x)
			}
		}
	}
}

func (g *Generator) addNoise(img *tensor.Tensor) {
	if g.cfg.NoiseStd <= 0 {
		return
	}
	for i := range img.Data {
		img.Data[i] = clamp01f(float64(img.Data[i]) + g.rng.NormFloat64()*g.cfg.NoiseStd)
	}
}

func clamp01f(v float64) float32 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return float32(v)
}
