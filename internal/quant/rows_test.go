package quant

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"skynet/internal/tensor"
)

// The sweeps of the code-row loops that live in this package — quantise,
// dequantise, the 2×2 code pool — under the vector row kernels against the
// same loops under SetKernel("purego"): every length 0..2·lane+1 at every
// start offset 0..lane-1, rows inside buffers of sentinels that must survive.
// (internal/tensor sweeps the requantise rows, internal/nn the depth-wise
// rows of both element types.)

const sweepGuard = 40

func guardedRow[T any](row []T, off int, sentinel T) (buf, window []T) {
	buf = make([]T, sweepGuard+off+len(row)+sweepGuard)
	for i := range buf {
		buf[i] = sentinel
	}
	window = buf[sweepGuard+off : sweepGuard+off+len(row)]
	copy(window, row)
	return buf, window
}

// underBothKernels runs fn under the Go row loops, then under the vector
// kernels (the Go loops again where there are none).
func underBothKernels(t *testing.T, fn func(kernel string)) {
	t.Helper()
	old := tensor.KernelName()
	defer func() {
		if err := tensor.SetKernel(old); err != nil {
			t.Fatalf("restoring kernel %q: %v", old, err)
		}
	}()
	for _, name := range []string{"purego", "auto"} {
		if err := tensor.SetKernel(name); err != nil {
			t.Fatalf("SetKernel(%q): %v", name, err)
		}
		fn(tensor.KernelName())
	}
}

func TestQuantizeIntoSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	special := []float32{float32(math.NaN()), math.Float32frombits(0xffc12345), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)), math.MaxFloat32, -math.MaxFloat32, 1e-40, -1e-45}
	for _, scale := range []float32{1, 0.5, 0.25, 0.0317, 3, 1e-30, 1e30, math.SmallestNonzeroFloat32} {
		for n := 0; n <= 17; n++ {
			for off := 0; off < 8; off++ {
				src := make([]float32, n)
				for i := range src {
					switch rng.Intn(4) {
					case 0:
						src[i] = special[rng.Intn(len(special))]
					case 1: // a tie of the grid, or next to one
						src[i] = (float32(rng.Intn(261)-130) + 0.5) * scale * []float32{1, 0.9999999, 1.0000001}[rng.Intn(3)]
					default:
						src[i] = float32(rng.NormFloat64()) * 60 * scale
					}
				}
				var first []int8
				underBothKernels(t, func(kernel string) {
					buf, row := guardedRow(make([]int8, n), off, int8(-128))
					quantizeInto(row, src, scale)
					for i, v := range src {
						if want := clampCode(math.RoundToEven(float64(v) * (1 / float64(scale)))); row[i] != want {
							t.Fatalf("kernel %s scale %v: code of %v = %d, want %d", kernel, scale, v, row[i], want)
						}
					}
					if first == nil {
						first = buf
					} else if !slices.Equal(buf, first) {
						t.Fatalf("scale %v n=%d off=%d src %v:\n%s %v\npurego %v", scale, n, off, src, kernel, buf, first)
					}
				})
			}
		}
	}
}

func TestDequantizeIntoSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, scale := range []float32{1, 0.0317, -2.5, 0, 1e-42, math.MaxFloat32, float32(math.Inf(1)), float32(math.NaN())} {
		for n := 0; n <= 17; n++ {
			for off := 0; off < 8; off++ {
				_, src := guardedRow(randCodes(rng, n), (off+3)%8, int8(-128))
				var first []float32
				underBothKernels(t, func(kernel string) {
					buf, row := guardedRow(make([]float32, n), off, float32(-12345.678))
					dequantizeInto(row, src, scale)
					if first == nil {
						first = buf
						return
					}
					for i := range buf {
						if math.Float32bits(buf[i]) != math.Float32bits(first[i]) {
							t.Fatalf("scale %v n=%d off=%d src %v: element %d: %s %v, purego %v", scale, n, off, src, i, kernel, buf[i], first[i])
						}
					}
				})
			}
		}
	}
}

// TestMaxPoolCodesSweep: k = 2 up to two vector blocks (sixteen outputs each)
// and a tail wide, k = 1 and 3 on the Go loop, against the scalar oracle.
func TestMaxPoolCodesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cases := 0
	for k := 1; k <= 3; k++ {
		for h := k; h <= 7; h++ {
			for w := k; w <= 2*(2*16+1)+1; w++ {
				cases++
				const planes = 2
				src := make([]int8, planes*h*w)
				for i := range src {
					src[i] = int8(rng.Intn(256) - 128)
				}
				want := make([]int8, planes*(h/k)*(w/k))
				maxPoolCodesRef(want, src, planes, h, w, k)
				_, in := guardedRow(src, cases%16, int8(127))
				underBothKernels(t, func(kernel string) {
					buf, out := guardedRow(make([]int8, len(want)), (cases+5)%16, int8(-77))
					maxPoolCodes(out, in, planes, h, w, k)
					if !slices.Equal(out, want) {
						t.Fatalf("k=%d %dx%d kernel %s: got %v, oracle %v", k, h, w, kernel, out, want)
					}
					for i, v := range buf {
						if j := i - sweepGuard - (cases+5)%16; (j < 0 || j >= len(want)) && v != -77 {
							t.Fatalf("k=%d %dx%d kernel %s: sentinel %d overwritten with %d", k, h, w, kernel, i, v)
						}
					}
				})
			}
		}
	}
}
