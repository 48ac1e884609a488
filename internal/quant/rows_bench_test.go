package quant

import (
	"fmt"
	"math/rand"
	"testing"

	"skynet/internal/tensor"
)

// The row benchmarks whose Go loop lives here — the 2×2 code pool, quantise,
// dequantise — at SkyNet C's row widths under each kernel, MB/s counting the
// row's own traffic (internal/tensor's BenchmarkRowCopy is the roofline).
func benchCodeRows(b *testing.B, bytesPerCol float64, op func(cols int) func()) {
	old := tensor.KernelName()
	defer func() { _ = tensor.SetKernel(old) }()
	for _, cols := range []int{320, 160, 80, 40} {
		for _, name := range []string{"purego", "avx2"} {
			if !tensor.HasKernel(name) {
				continue
			}
			b.Run(fmt.Sprintf("%d/%s", cols, name), func(b *testing.B) {
				if err := tensor.SetKernel(name); err != nil {
					b.Fatal(err)
				}
				run := op(cols)
				b.SetBytes(int64(bytesPerCol * float64(cols)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
			})
		}
	}
}

func BenchmarkRowMaxPool2Codes(b *testing.B) {
	benchCodeRows(b, 2.5, func(cols int) func() {
		src, dst := randCodes(rand.New(rand.NewSource(1)), 2*cols), make([]int8, cols/2)
		return func() { maxPoolCodes(dst, src, 1, 2, cols, 2) }
	})
}

func BenchmarkRowQuantize(b *testing.B) {
	benchCodeRows(b, 5, func(cols int) func() {
		src, dst := make([]float32, cols), make([]int8, cols)
		rng := rand.New(rand.NewSource(1))
		for i := range src {
			src[i] = float32(rng.NormFloat64())
		}
		return func() { quantizeInto(dst, src, 0.0317) }
	})
}

func BenchmarkRowDequantize(b *testing.B) {
	benchCodeRows(b, 5, func(cols int) func() {
		src, dst := randCodes(rand.New(rand.NewSource(1)), cols), make([]float32, cols)
		return func() { dequantizeInto(dst, src, 0.0317) }
	})
}
