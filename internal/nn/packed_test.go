package nn_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"skynet/internal/nn"
)

// TestStaleWeightsNeverReachAForward: a plan packs its convolutions' weights
// as each forward begins, so one that changes a Bundle's 1×1 weights and its
// batch norm between two forwards of the same plan — no recompile, the
// panels already made — computes the second with the new ones: bit for bit
// what a fresh graph holding the same parameters computes, under every
// kernel, on one lane and on several, and in bands cut small.
func TestStaleWeightsNeverReachAForward(t *testing.T) {
	nn.SetBandBudget(t, 16<<10)
	withKernels(t, func(kernel string) {
		for _, n := range []int{1, 3} {
			g, rng := skyNetC(0.25, 48)
			x := randBatch(rng, n, 3, 32, 64)
			before := g.Forward(x, false)
			var bundle nn.Step
			steps, _ := nn.Compile(g, x.Shape(), nil).Steps()
			for _, s := range steps {
				if s.Band != nil && s.Chain.BN != nil {
					bundle = s
				}
			}
			if bundle.Band == nil {
				t.Fatal("the model's plan has no Bundle step with a batch norm")
			}
			pw, bn := g.Nodes[bundle.Band.Conv].Layer.(*nn.Conv2D), bundle.Chain.BN
			pw.Weight.W.RandNormal(rng, 0, 0.5)
			bn.RunMean.RandNormal(rng, 0, 0.3)
			bn.RunVar.RandUniform(rng, 0.5, 2)
			after := g.Forward(x, false)
			if bytes.Equal(floatBytes(after), floatBytes(before)) {
				t.Fatalf("%s, batch %d: changing the Bundle left the output unchanged", kernel, n)
			}
			var saved bytes.Buffer
			if err := g.Save(&saved); err != nil {
				t.Fatal(err)
			}
			fresh, _ := skyNetC(0.25, 1)
			if err := fresh.Load(&saved); err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, fmt.Sprintf("%s, batch %d: the second forward of one plan", kernel, n), after, fresh.Forward(x, false))
		}
	})
}

// TestDWBandSweep holds a band of a 3×3 stride-1 depth-wise plane — its rows
// under all three kernel rows in one kernel call (tensor.DW3Band), the
// others on DWRow — to DWRow row by row, under every kernel: every band of
// every plane from 1×1 to 12×33, those touching the image's top and bottom
// rows included, each inside a buffer of sentinels.
func TestDWBandSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	d := nn.NewDWConv3(rng, 1, 3, true)
	same := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
	for w := 1; w <= 33; w++ {
		for h := 1; h <= 12; h++ {
			_, in := inGuard(saltedPlane(rng, h*w), w%8, float32(1e30))
			d.Bias.W.Data[0] = float32(rng.NormFloat64())
			for i := range d.Weight.W.Data {
				d.Weight.W.Data[i] = float32(0.1+rng.Float64()) * float32(1-2*rng.Intn(2))
			}
			for oy := 0; oy < h; oy++ {
				for rows := 1; oy+rows <= h; rows++ {
					want := make([]float32, rows*w)
					for r := 0; r < rows; r++ {
						nn.DWRow(want[r*w:(r+1)*w], in, d.Weight.W.Data, d.Bias.W.Data[0], h, w, 3, 1, 1, oy+r)
					}
					withKernels(t, func(kernel string) {
						buf, out := inGuard(make([]float32, rows*w), (oy+rows)%8, float32(-12345.678))
						nn.DWRows(d, out, in, h, w, 0, oy)
						for i := range buf {
							exp := float32(-12345.678)
							if j := i - rowGuard - (oy+rows)%8; j >= 0 && j < len(want) {
								exp = want[j]
							}
							if !same(buf[i], exp) {
								t.Fatalf("%dx%d rows [%d, %d), kernel %s: buffer element %d = %v, per-row DWRow gives %v", h, w, oy, oy+rows, kernel, i, buf[i], exp)
							}
						}
					})
				}
			}
		}
	}
}

// TestReorgKernelSweep holds ReorgRows — the vector kernel's one-pass
// de-interleave at s = 2, the scalar loop for the rest and at s = 3 — to the
// scalar loop alone, ReorgRows under SetKernel("purego"), for float32 maps
// and int8 codes: three channels, every height and width from 1 to 33 (the
// rows and columns past the last whole block are not the reorder's), whole
// and in bands of s rows, the destination inside sentinels.
func TestReorgKernelSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	sweepReorgKernel(t, func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(i + 1)
		}
		return v
	}, -1)
	sweepReorgKernel(t, func(n int) []int8 { return randCodes(rng, n) }, -128)
}

func sweepReorgKernel[T comparable](t *testing.T, draw func(n int) []T, sentinel T) {
	t.Helper()
	const c = 3
	for s := 2; s <= 3; s++ {
		for h := 1; h <= 33; h++ {
			for w := 1; w <= 33; w++ {
				oh, ow, rows := h/s, w/s, h/s*s
				src := draw(c * rows * w)
				reorder := func(band int) (buf []T) {
					buf, out := inGuard(make([]T, c*s*s*oh*ow), (h+w)%8, sentinel)
					for r0 := 0; r0 < rows; r0 += band {
						part := make([]T, 0, c*band*w)
						for ch := 0; ch < c; ch++ {
							part = append(part, src[(ch*rows+r0)*w:(ch*rows+r0+band)*w]...)
						}
						nn.ReorgRows(out, part, c, h, w, s, r0, band)
					}
					return buf
				}
				var want []T
				withKernels(t, func(kernel string) {
					if kernel == "purego" {
						want = reorder(max(rows, 1))
					}
					for _, band := range []int{max(rows, 1), s} {
						for i, v := range reorder(band) {
							if v != want[i] {
								t.Fatalf("s=%d %dx%d in bands of %d rows, kernel %s: buffer element %d (map starts at %d) = %v, the scalar loop gives %v", s, h, w, band, kernel, i, rowGuard+(h+w)%8, v, want[i])
							}
						}
					}
				})
			}
		}
	}
}
