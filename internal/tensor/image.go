package tensor

import "math"

// BilinearResize rescales a [C,H,W] image tensor to [C,newH,newW] with
// bilinear interpolation. Used for data augmentation, the multi-scale
// training of the paper's §6.1, and the input-resize-factor experiments.
func BilinearResize(img *Tensor, newH, newW int) *Tensor {
	if img.Rank() != 3 {
		panic("tensor: BilinearResize expects a [C,H,W] image")
	}
	return CropResize(img, 0, 0, img.Dim(1), img.Dim(2), newH, newW)
}

// CropResize resamples the pixel window [y0,y0+ch) × [x0,x0+cw) of a [C,H,W]
// image to [C,newH,newW]. The window may reach outside the image: a read
// outside it takes the nearest edge pixel (border replication). A window of
// the output's size is copied; any other is interpolated bilinearly, each
// output pixel from the four window pixels around its centre, in float64.
//
// The result is, bit for bit, a crop of the window materialised with
// replication and then resized — the window is sampled in place instead, so
// the output is the only tensor made (a resize adds one table of column
// indices and weights per call). Rows are addressed as slices and the edge
// clamps are taken once per output row and column, not per pixel.
func CropResize(img *Tensor, y0, x0, ch, cw, newH, newW int) *Tensor {
	if img.Rank() != 3 {
		panic("tensor: CropResize expects a [C,H,W] image")
	}
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	out := New(c, newH, newW)
	if newH == ch && newW == cw {
		// Output columns [lo, hi) read inside the image; the rest replicate
		// the row's first or last pixel.
		lo, hi := min(max(-x0, 0), cw), min(max(w-x0, 0), cw)
		for k := 0; k < c; k++ {
			for y := 0; y < ch; y++ {
				src := img.Data[(k*h+clampIndex(y0+y, h))*w:][:w]
				dst := out.Data[(k*ch+y)*cw:][:cw]
				for x := 0; x < lo; x++ {
					dst[x] = src[0]
				}
				if lo < hi {
					copy(dst[lo:hi], src[x0+lo:x0+hi])
				}
				for x := hi; x < cw; x++ {
					dst[x] = src[w-1]
				}
			}
		}
		return out
	}
	// cols[x] holds output column x's two source columns and the weight of
	// the second; rows are resolved the same way, once per output row.
	type tap struct {
		a, b int
		t    float64
	}
	cols := make([]tap, newW)
	for x := range cols {
		a, b, t := bilinearTaps(x, cw, newW)
		cols[x] = tap{clampIndex(x0+a, w), clampIndex(x0+b, w), t}
	}
	for y := 0; y < newH; y++ {
		a, b, ty := bilinearTaps(y, ch, newH)
		ya, yb := clampIndex(y0+a, h), clampIndex(y0+b, h)
		for k := 0; k < c; k++ {
			r0 := img.Data[(k*h+ya)*w:][:w]
			r1 := img.Data[(k*h+yb)*w:][:w]
			dst := out.Data[(k*newH+y)*newW:][:newW]
			for x, col := range cols {
				tx := col.t
				v00, v01 := float64(r0[col.a]), float64(r0[col.b])
				v10, v11 := float64(r1[col.a]), float64(r1[col.b])
				v := (v00*(1-tx)+v01*tx)*(1-ty) + (v10*(1-tx)+v11*tx)*ty
				dst[x] = float32(v)
			}
		}
	}
	return out
}

// bilinearTaps returns, for output position o of a size → newSize resample,
// the two source positions its value interpolates between and the weight of
// the second: pixel centres are aligned, and positions are held inside
// [0, size).
func bilinearTaps(o, size, newSize int) (a, b int, t float64) {
	f := (float64(o)+0.5)*(float64(size)/float64(newSize)) - 0.5
	a = int(math.Floor(f))
	t = f - float64(a)
	b = a + 1
	if a < 0 {
		a = 0
	}
	if b >= size {
		b = size - 1
	}
	if a > b {
		a = b
	}
	return a, b, t
}

// clampIndex holds i inside [0, n).
func clampIndex(i, n int) int {
	return max(0, min(i, n-1))
}
