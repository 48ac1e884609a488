package nn_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"skynet/internal/backbone"
	"skynet/internal/nn"
)

// The row benchmarks whose Go loop lives here: one depth-wise 3×3 row and one
// 2×2 pool row pair at SkyNet C's row widths, under each kernel. MB/s counts
// the row's own traffic (three input rows and one output row; two and a
// half); internal/tensor's BenchmarkRowCopy is the roofline.

func benchKernels(b *testing.B, body func(b *testing.B)) {
	withKernels(b, func(kernel string) { b.Run(kernel, body) })
}

func benchDWRow[E float32 | int8, A float32 | int32](b *testing.B, elem int, draw func(*rand.Rand) E) {
	for _, cols := range []int{320, 160, 80, 40} {
		b.Run(fmt.Sprint(cols), func(b *testing.B) {
			benchKernels(b, func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				const h = 5
				in, ker, acc := make([]E, h*cols), make([]E, 9), make([]A, cols)
				for i := range in {
					in[i] = draw(rng)
				}
				for i := range ker {
					ker[i] = draw(rng)
				}
				b.SetBytes(int64(cols * (3*elem + 4)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					nn.DWRow(acc, in, ker, 1, h, cols, 3, 1, 1, 1+i%3)
				}
			})
		})
	}
}

func BenchmarkRowDW3(b *testing.B) {
	benchDWRow[float32, float32](b, 4, func(rng *rand.Rand) float32 { return float32(rng.NormFloat64()) })
}

func BenchmarkRowDW3Int8(b *testing.B) {
	benchDWRow[int8, int32](b, 1, func(rng *rand.Rand) int8 { return int8(rng.Intn(255) - 127) })
}

func BenchmarkRowMaxPool2(b *testing.B) {
	for _, cols := range []int{320, 160, 80, 40} {
		b.Run(fmt.Sprint(cols), func(b *testing.B) {
			benchKernels(b, func(b *testing.B) {
				src := randBatch(rand.New(rand.NewSource(1)), 2, cols).Data
				dst := make([]float32, cols/2)
				b.SetBytes(int64(4 * (2*cols + cols/2)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					nn.MaxPoolInto(dst, src, 1, 2, cols, 2)
				}
			})
		})
	}
}

// BenchmarkPlanSteps times each step of SkyNet C's inference plan at 160×320,
// batch 1 and batch 4, as Graph.Forward runs them (nn.StepTimes), and
// reports every step's median over the iterations in ms: the per-step ledger
// of where a forward — and so each of quant.Export's calibration forwards —
// spends its time. Run with -benchtime 20x or more for stable medians.
func BenchmarkPlanSteps(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := backbone.SkyNetC(rng, backbone.DefaultConfig())
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("batch%d", n), func(b *testing.B) {
			x := randBatch(rng, n, 3, 160, 320)
			g.Forward(x, false) // compile the plan, grow the arena
			var names []string
			var samples [][]float64 // by step, then by iteration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var times []time.Duration
				names, times = nn.StepTimes(g, x)
				if samples == nil {
					samples = make([][]float64, len(times))
				}
				for k, d := range times {
					samples[k] = append(samples[k], float64(d)/1e6)
				}
			}
			for k, name := range names {
				slices.Sort(samples[k])
				b.ReportMetric(samples[k][len(samples[k])/2], name+"_ms")
			}
		})
	}
}
