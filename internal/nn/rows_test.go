package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// The depth-wise and pool sweeps: nn.DWRow and maxPoolInto under the vector
// row kernels against the same functions under SetKernel("purego") and
// against the loops they are defined by — every tap tested against the image
// edge; a window's first element replaced only by a strictly greater one —
// over every small plane and every kernel size, stride and padding, the
// plane and the output row each inside a buffer of sentinels. The 3×3
// stride-1 rows and the 2×2 pool are the shapes with vector code; the others
// must still take the Go loops and still be right.

const rowGuard = 24 // sentinels on either side of a swept buffer

// inGuard returns a buffer of sentinels with data copied in off elements past
// the leading guard, and the window of it that is the data.
func inGuard[T any](data []T, off int, sentinel T) (buf, window []T) {
	buf = make([]T, rowGuard+off+len(data)+rowGuard)
	for i := range buf {
		buf[i] = sentinel
	}
	window = buf[rowGuard+off : rowGuard+off+len(data)]
	copy(window, data)
	return buf, window
}

// saltedPlane draws n float32 values, one in five special. Two different
// NaNs must not meet in one sum — which survives is the adding instruction's
// first source, an accident of register allocation in the Go loop — so a
// plane has one NaN pattern, and only the default one (what Inf-Inf makes)
// shares a plane with values that can overflow.
func saltedPlane(rng *rand.Rand, n int) []float32 {
	special := []float32{math.Float32frombits(0xffc00000), 0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32,
		math.Float32frombits(1), -1e-40, math.SmallestNonzeroFloat32}
	if rng.Intn(2) == 0 {
		nan := []uint32{0x7fc12345, 0xffd54321, 0x7f800001, 0x7fc00000}[rng.Intn(4)]
		special = []float32{math.Float32frombits(nan), 0, float32(math.Copysign(0, -1)),
			math.Float32frombits(1), -1e-40, 1e-38, -3}
	}
	p := make([]float32, n)
	for i := range p {
		if rng.Intn(5) == 0 {
			p[i] = special[rng.Intn(len(special))]
		} else {
			p[i] = float32(rng.NormFloat64())
		}
	}
	return p
}

func randCodes(rng *rand.Rand, n int) []int8 {
	c := make([]int8, n)
	for i := range c {
		c[i] = int8(rng.Intn(256) - 128)
	}
	return c
}

// dwRowRef is the definition DWRow is held to: every tap tested against both
// image edges, taps added to the bias in ascending (ky, kx).
func dwRowRef[E float32 | int8, A float32 | int32](acc []A, in, ker []E, bias A, h, w, k, stride, pad, oy int) {
	for ox := range acc {
		s := bias
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				if iy, ix := oy*stride-pad+ky, ox*stride-pad+kx; iy >= 0 && iy < h && ix >= 0 && ix < w {
					s += A(in[iy*w+ix]) * A(ker[ky*k+kx])
				}
			}
		}
		acc[ox] = s
	}
}

// dwSweepWidths are the plane widths of the depth-wise sweep. On a 3×3
// stride-1 pad-1 row the vector kernel takes the w-2 interior outputs, its
// last vector overlapping the one before when w-2 is not a multiple of 8:
// 1–19 hold every interior short of a vector (w ≤ 9), exactly one (w = 10),
// one plus 1–7 (w = 11–17) and two (w = 18); 25, 26 and 33 hold two vectors
// plus 7, three, and three plus 7.
var dwSweepWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 25, 26, 33}

// sweepDW runs the depth-wise sweep for one pair of element types.
func sweepDW[E float32 | int8, A float32 | int32](t *testing.T, plane, taps func(*rand.Rand, int) []E, bias func(*rand.Rand) A, inSentinel E, outSentinel A, same func(a, b A) bool) {
	rng := rand.New(rand.NewSource(31))
	cases := 0
	for _, k := range []int{1, 3, 5} {
		for stride := 1; stride <= 3; stride++ {
			for pad := 0; pad <= k/2+1; pad++ {
				for h := 1; h <= 17; h++ {
					for _, w := range dwSweepWidths {
						if h+2*pad < k || w+2*pad < k {
							continue
						}
						cases++
						outH, outW := tensor.ConvOut(h, k, stride, pad), tensor.ConvOut(w, k, stride, pad)
						_, in := inGuard(plane(rng, h*w), cases%8, inSentinel)
						ker, b := taps(rng, k*k), bias(rng)
						for oy := 0; oy < outH; oy++ {
							want := make([]A, outW)
							dwRowRef(want, in, ker, b, h, w, k, stride, pad, oy)
							withKernels(t, func(kernel string) {
								buf, acc := inGuard(make([]A, outW), (cases+oy)%8, outSentinel)
								nn.DWRow(acc, in, ker, b, h, w, k, stride, pad, oy)
								for i := range buf {
									exp := outSentinel
									if j := i - rowGuard - (cases+oy)%8; j >= 0 && j < outW {
										exp = want[j]
									}
									if !same(buf[i], exp) {
										t.Fatalf("k=%d stride=%d pad=%d %dx%d row %d, kernel %s: buffer element %d (row starts at %d) = %v, want %v\nin %v\nker %v bias %v",
											k, stride, pad, h, w, oy, kernel, i, rowGuard+(cases+oy)%8, buf[i], exp, in, ker, b)
									}
								}
							})
						}
					}
				}
			}
		}
	}
}

func TestDWRowSweepFloat(t *testing.T) {
	ordinary := func(rng *rand.Rand, n int) []float32 { // no tap makes a NaN of its own: see saltedPlane
		ker := make([]float32, n)
		for i := range ker {
			ker[i] = float32(0.1 + rng.Float64())
			if rng.Intn(2) == 0 {
				ker[i] = -ker[i]
			}
		}
		return ker
	}
	sweepDW(t, saltedPlane, ordinary, func(rng *rand.Rand) float32 {
		return []float32{0, float32(math.Copysign(0, -1)), 0.75, float32(rng.NormFloat64())}[rng.Intn(4)]
	}, float32(1e30), float32(-12345.678), func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) })
}

func TestDWRowSweepInt8(t *testing.T) {
	sweepDW(t, randCodes, randCodes, func(rng *rand.Rand) int32 {
		return []int32{0, math.MaxInt32, math.MinInt32, int32(rng.Intn(20001) - 10000)}[rng.Intn(4)]
	}, int8(-128), int32(0x5ea7beef), func(a, b int32) bool { return a == b })
}

// TestMaxPoolSweep: k = 2 up to two vector blocks and a tail wide, k = 1 and
// 3 on the Go loop; all NaNs and zeros of both signs welcome — a pool does no
// arithmetic.
func TestMaxPoolSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	special := []float32{math.Float32frombits(0x7fc12345), math.Float32frombits(0xffd54321), math.Float32frombits(0x7f800001),
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32, 1e-40}
	cases := 0
	for k := 1; k <= 3; k++ {
		for h := k; h <= 9; h++ {
			for w := k; w <= 2*(2*8+1)+1; w++ {
				cases++
				const planes = 2
				src := make([]float32, planes*h*w)
				for i := range src {
					src[i] = float32(rng.Intn(5)) - 2 // many ties
					if rng.Intn(3) == 0 {
						src[i] = special[rng.Intn(len(special))]
					}
				}
				oh, ow := h/k, w/k
				want := make([]float32, planes*oh*ow)
				for p := 0; p < planes; p++ {
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							best := src[p*h*w+oy*k*w+ox*k]
							for ky := 0; ky < k; ky++ {
								for kx := 0; kx < k; kx++ {
									if v := src[p*h*w+(oy*k+ky)*w+ox*k+kx]; v > best {
										best = v
									}
								}
							}
							want[(p*oh+oy)*ow+ox] = best
						}
					}
				}
				_, in := inGuard(src, cases%8, float32(math.Inf(1)))
				withKernels(t, func(kernel string) {
					buf, out := inGuard(make([]float32, len(want)), (cases+3)%8, float32(-12345.678))
					nn.MaxPoolInto(out, in, planes, h, w, k)
					for i := range buf {
						exp := float32(-12345.678)
						if j := i - rowGuard - (cases+3)%8; j >= 0 && j < len(want) {
							exp = want[j]
						}
						if math.Float32bits(buf[i]) != math.Float32bits(exp) {
							t.Fatalf("k=%d %dx%d, kernel %s: buffer element %d = %v (%#08x), want %v (%#08x)\nsrc %v",
								k, h, w, kernel, i, buf[i], math.Float32bits(buf[i]), exp, math.Float32bits(exp), src)
						}
					}
				})
			}
		}
	}
}

// reorgRef is the loop order ReorgInto had before it was built on ReorgRows:
// destination plane by destination plane, each source row walked s times with
// a stride. The definition the row routine is held to.
func reorgRef[T any](dst, src []T, n, c, h, w, s int) {
	oh, ow := h/s, w/s
	for i := 0; i < n; i++ {
		for dy := 0; dy < s; dy++ {
			for dx := 0; dx < s; dx++ {
				for ch := 0; ch < c; ch++ {
					oc := (dy*s+dx)*c + ch
					for y := 0; y < oh; y++ {
						srcBase := ((i*c+ch)*h+(y*s+dy))*w + dx
						dstBase := ((i*c*s*s+oc)*oh + y) * ow
						for xo := 0; xo < ow; xo++ {
							dst[dstBase+xo] = src[srcBase+xo*s]
						}
					}
				}
			}
		}
	}
}

// sweepReorg holds ReorgInto on two whole images, and ReorgRows called band
// by band on the second as a Bundle step calls it — each band's rows alone in
// a buffer — to reorgRef, the destination inside sentinels: every block size
// 1..3, an odd channel count, every h×w up to four blocks, every band height.
func sweepReorg[T comparable](t *testing.T, draw func(n int) []T, sentinel T) {
	t.Helper()
	const n, c = 2, 3
	for s := 1; s <= 3; s++ {
		for h := s; h <= 4*s; h += s {
			for w := s; w <= 4*s; w += s {
				src := draw(n * c * h * w)
				want := make([]T, len(src))
				reorgRef(want, src, n, c, h, w, s)
				buf, out := inGuard(make([]T, len(src)), (h+w)%8, sentinel)
				nn.ReorgInto(out, src, n, c, h, w, s)
				check := func(what string) {
					t.Helper()
					for i := range buf {
						exp := sentinel
						if j := i - rowGuard - (h+w)%8; j >= 0 && j < len(want) {
							exp = want[j]
						}
						if buf[i] != exp {
							t.Fatalf("s=%d %dx%d, %s: buffer element %d = %v, want %v", s, h, w, what, i, buf[i], exp)
						}
					}
				}
				check("whole")
				for rows := s; rows <= h; rows += s {
					last := out[(n-1)*c*h*w:]
					for i := range last {
						last[i] = sentinel
					}
					for r0 := 0; r0 < h; r0 += rows {
						cnt := min(rows, h-r0)
						band := make([]T, 0, c*cnt*w)
						for ch := 0; ch < c; ch++ {
							plane := src[((n-1)*c+ch)*h*w:]
							band = append(band, plane[r0*w:(r0+cnt)*w]...)
						}
						nn.ReorgRows(last, band, c, h, w, s, r0, cnt)
					}
					check(fmt.Sprintf("in bands of %d rows", rows))
				}
			}
		}
	}
}

// TestReorgSweep: the reordering moves values and does nothing else, so
// distinct values are all it takes — as float32 maps and as int8 codes.
func TestReorgSweep(t *testing.T) {
	sweepReorg(t, func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(i + 1)
		}
		return v
	}, -1)
	rng := rand.New(rand.NewSource(34))
	sweepReorg(t, func(n int) []int8 { return randCodes(rng, n) }, -128)
}

// TestRowPassesMatchScalar holds the stand-alone batch-norm and activation
// passes — what a hooked or masked plan runs, calibration included — to the
// per-element functions they are defined by, under both kernels, on a plane
// that is neither a multiple of the lane count nor aligned to it.
func TestRowPassesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const c, h, w = 3, 5, 7
	bn := nn.NewBatchNorm(c)
	g := nn.NewGraph()
	g.Add(bn, nn.GraphInput)
	unsettle(g, rng)
	x := tensor.FromSlice(saltedPlane(rng, 2*c*h*w), 2, c, h, w)
	for _, act := range []*nn.ReLU{nn.NewReLU(), nn.NewReLU6()} {
		withKernels(t, func(kernel string) {
			y := bn.Forward([]*tensor.Tensor{x}, false)
			z := act.Forward([]*tensor.Tensor{y}, false)
			for i, v := range x.Data {
				ch := i / (h * w) % c
				inv := float32(1.0 / math.Sqrt(float64(bn.RunVar.Data[ch])+float64(bn.Eps)))
				wantY := tensor.BNEval(v, bn.Gamma.W.Data[ch], bn.RunMean.Data[ch], inv, bn.Beta.W.Data[ch])
				if wantZ := tensor.ReLUClamp(wantY, act.Cap); math.Float32bits(y.Data[i]) != math.Float32bits(wantY) || math.Float32bits(z.Data[i]) != math.Float32bits(wantZ) {
					t.Fatalf("kernel %s cap %v element %d (%v): bn %v relu %v, want %v and %v", kernel, act.Cap, i, v, y.Data[i], z.Data[i], wantY, wantZ)
				}
			}
		})
	}
}
