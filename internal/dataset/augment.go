package dataset

import (
	"math/rand"

	"skynet/internal/detect"
	"skynet/internal/tensor"
)

// BilinearResize rescales a [C,H,W] image to [C,newH,newW] with bilinear
// interpolation. It implements both the data-augmentation resize of §6.1
// and the input-resize-factor knob of Figure 2(b).
func BilinearResize(img *tensor.Tensor, newH, newW int) *tensor.Tensor {
	return tensor.BilinearResize(img, newH, newW)
}

// Crop extracts the pixel rectangle [y0,y0+ch) × [x0,x0+cw) from a [C,H,W]
// image, clamping out-of-bounds reads to the edge (border replication).
func Crop(img *tensor.Tensor, y0, x0, ch, cw int) *tensor.Tensor {
	return tensor.CropResize(img, y0, x0, ch, cw, ch, cw)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Augmentor applies the paper's §6.1 training-time augmentations: distort
// (photometric), jitter + crop (geometric), and resize.
type Augmentor struct {
	// MaxDistort bounds per-channel brightness/contrast perturbation.
	MaxDistort float64
	// MaxJitter is the maximum crop shift as a fraction of the image size.
	MaxJitter float64
	rng       *rand.Rand
}

// NewAugmentor returns an augmentor with the given perturbation bounds.
func NewAugmentor(seed int64, maxDistort, maxJitter float64) *Augmentor {
	return &Augmentor{MaxDistort: maxDistort, MaxJitter: maxJitter,
		rng: rand.New(rand.NewSource(seed))}
}

// Apply returns an augmented copy of the sample: photometric distortion
// followed by a jittered crop that is resized back to the original
// resolution, with the box adjusted accordingly.
func (a *Augmentor) Apply(s detect.Sample) detect.Sample {
	img := s.Image.Clone()
	// Distort: per-channel gain and bias.
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	for ch := 0; ch < c; ch++ {
		gain := 1 + (a.rng.Float64()*2-1)*a.MaxDistort
		bias := (a.rng.Float64()*2 - 1) * a.MaxDistort * 0.5
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				img.Set(clamp01f(float64(img.At(ch, y, x))*gain+bias), ch, y, x)
			}
		}
	}
	// Jitter + crop: shift the viewport by up to MaxJitter, same size.
	dx := int((a.rng.Float64()*2 - 1) * a.MaxJitter * float64(w))
	dy := int((a.rng.Float64()*2 - 1) * a.MaxJitter * float64(h))
	img = Crop(img, dy, dx, h, w)
	box := detect.Box{
		CX: s.Box.CX - float64(dx)/float64(w),
		CY: s.Box.CY - float64(dy)/float64(h),
		W:  s.Box.W, H: s.Box.H,
	}.Clip()
	return detect.Sample{Image: img, Box: box}
}

// ResizeSample rescales a sample to a new resolution (resize-factor
// experiments); the normalized box is resolution independent and unchanged.
func ResizeSample(s detect.Sample, newH, newW int) detect.Sample {
	return detect.Sample{Image: BilinearResize(s.Image, newH, newW), Box: s.Box}
}
