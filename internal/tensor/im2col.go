package tensor

import "fmt"

// ConvOut returns the spatial output size of a convolution with the given
// input size, kernel, stride and padding.
//
//skynet:hotpath
func ConvOut(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Im2Col is Im2ColInto on tensors: img must be [C,H,W] and col exactly
// [C*kh*kw, outH*outW].
//
//skynet:hotpath
func Im2Col(col, img *Tensor, kh, kw, stride, pad int) {
	if img.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Im2Col expects [C,H,W] input, got %v", img.shape))
	}
	c, h, w := img.shape[0], img.shape[1], img.shape[2]
	rows := c * kh * kw
	cols := ConvOut(h, kh, stride, pad) * ConvOut(w, kw, stride, pad)
	if col.shape[0] != rows || col.shape[1] != cols {
		panic(fmt.Sprintf("tensor: Im2Col output shape %v, want [%d %d]", col.shape, rows, cols))
	}
	Im2ColInto(col.Data, img.Data, c, h, w, kh, kw, stride, pad)
}

// Im2ColInto lowers one image [c,h,w] into the leading [c*kh*kw, outH*outW]
// of col, so that a convolution becomes one matrix multiplication with the
// [outC, c*kh*kw] weight matrix — float32 for the float engine, int8 codes
// for the int8 one. Padding positions contribute zeros (for int8, the
// symmetric zero point). The caller reuses one col buffer across a batch.
//
//skynet:hotpath
func Im2ColInto[T float32 | int8](col, img []T, c, h, w, kh, kw, stride, pad int) {
	outH := ConvOut(h, kh, stride, pad)
	outW := ConvOut(w, kw, stride, pad)
	cols := outH * outW
	if len(img) < c*h*w || len(col) < c*kh*kw*cols {
		panic("tensor: Im2ColInto operand lengths do not cover the given shape")
	}
	row := 0
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				dst := col[row*cols : (row+1)*cols]
				di := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						for ox := 0; ox < outW; ox++ {
							dst[di] = 0
							di++
						}
						continue
					}
					rowBase := chBase + iy*w
					for ox := 0; ox < outW; ox++ {
						ix := ox*stride - pad + kx
						if ix < 0 || ix >= w {
							dst[di] = 0
						} else {
							dst[di] = img[rowBase+ix]
						}
						di++
					}
				}
				row++
			}
		}
	}
}

// Col2Im is the adjoint of Im2ColInto: it scatters a [c*kh*kw, outH*outW]
// matrix back into an image [c,h,w], accumulating overlapping
// contributions. The destination img is zeroed first. Used to propagate
// gradients through convolutions.
//
//skynet:hotpath
func Col2Im(img, col []float32, c, h, w, kh, kw, stride, pad int) {
	outH := ConvOut(h, kh, stride, pad)
	outW := ConvOut(w, kw, stride, pad)
	cols := outH * outW
	img = img[:c*h*w]
	clear(img)
	row := 0
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				src := col[row*cols : (row+1)*cols]
				si := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						si += outW
						continue
					}
					rowBase := chBase + iy*w
					for ox := 0; ox < outW; ox++ {
						ix := ox*stride - pad + kx
						if ix >= 0 && ix < w {
							img[rowBase+ix] += src[si]
						}
						si++
					}
				}
				row++
			}
		}
	}
}
