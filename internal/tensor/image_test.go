package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// cropRef and resizeRef are the per-pixel At/Set formulations CropResize
// replaced, kept as its oracle: materialise the window with border
// replication, then resize the copy.
func cropRef(img *Tensor, y0, x0, ch, cw int) *Tensor {
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	out := New(c, ch, cw)
	for k := 0; k < c; k++ {
		for y := 0; y < ch; y++ {
			sy := clampIndex(y0+y, h)
			for x := 0; x < cw; x++ {
				out.Set(img.At(k, sy, clampIndex(x0+x, w)), k, y, x)
			}
		}
	}
	return out
}

func resizeRef(img *Tensor, newH, newW int) *Tensor {
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	if newH == h && newW == w {
		return img.Clone()
	}
	out := New(c, newH, newW)
	sy := float64(h) / float64(newH)
	sx := float64(w) / float64(newW)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < newH; y++ {
			fy := (float64(y)+0.5)*sy - 0.5
			y0 := int(math.Floor(fy))
			ty := fy - float64(y0)
			y1 := y0 + 1
			if y0 < 0 {
				y0 = 0
			}
			if y1 >= h {
				y1 = h - 1
			}
			if y0 > y1 {
				y0 = y1
			}
			for x := 0; x < newW; x++ {
				fx := (float64(x)+0.5)*sx - 0.5
				x0 := int(math.Floor(fx))
				tx := fx - float64(x0)
				x1 := x0 + 1
				if x0 < 0 {
					x0 = 0
				}
				if x1 >= w {
					x1 = w - 1
				}
				if x0 > x1 {
					x0 = x1
				}
				v00 := float64(img.At(ch, y0, x0))
				v01 := float64(img.At(ch, y0, x1))
				v10 := float64(img.At(ch, y1, x0))
				v11 := float64(img.At(ch, y1, x1))
				v := (v00*(1-tx)+v01*tx)*(1-ty) + (v10*(1-tx)+v11*tx)*ty
				out.Set(float32(v), ch, y, x)
			}
		}
	}
	return out
}

func sameBits(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d is %x, want %x", what, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
		}
	}
}

// TestCropResizeMatchesPerPixelReference: the row-slice loops equal the
// At/Set formulation bit for bit — over random images (1-pixel sources
// included), random windows inside, across every edge, and wholly outside
// the image, up- and down-sampled and copied at size; and so do the two
// entry points built on it, and CropResizeInto with one column-tap table
// reused for every call.
func TestCropResizeMatchesPerPixelReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cols := make(ColTaps, 20) // one table for every call, as wide as the widest output
	for trial := 0; trial < 400; trial++ {
		c, h, w := 1+rng.Intn(3), 1+rng.Intn(12), 1+rng.Intn(12)
		img := New(c, h, w)
		img.RandNormal(rng, 0, 1)
		ch, cw := 1+rng.Intn(16), 1+rng.Intn(16)
		// Offsets from well left of / above the image to well past it.
		y0, x0 := rng.Intn(h+2*ch+1)-2*ch, rng.Intn(w+2*cw+1)-2*cw
		newH, newW := 1+rng.Intn(20), 1+rng.Intn(20)
		if trial%4 == 0 {
			newH, newW = ch, cw // the copy path
		}
		want := resizeRef(cropRef(img, y0, x0, ch, cw), newH, newW)
		sameBits(t, "CropResize", CropResize(img, y0, x0, ch, cw, newH, newW), want)
		into := New(c, newH, newW)
		into.Fill(float32(math.NaN()))
		CropResizeInto(into, img, y0, x0, ch, cw, cols)
		sameBits(t, "CropResizeInto", into, want)
		sameBits(t, "BilinearResize", BilinearResize(img, newH, newW), resizeRef(img, newH, newW))
	}
}

// TestCropResizeIntoAllocatesNothing: a resample and a copy into a caller's
// tensor and column-tap table allocate nothing.
func TestCropResizeIntoAllocatesNothing(t *testing.T) {
	img := New(3, 40, 50)
	img.RandNormal(rand.New(rand.NewSource(20)), 0, 1)
	dst, cols := New(3, 16, 16), make(ColTaps, 16)
	if n := testing.AllocsPerRun(20, func() {
		CropResizeInto(dst, img, -3, 30, 24, 24, cols)
		CropResizeInto(dst, img, 5, 5, 16, 16, nil)
	}); n != 0 {
		t.Fatalf("CropResizeInto: %v allocations per call, want 0", n)
	}
}
