package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// rowBenchCols are SkyNet C's row widths at 160×320: the input and first
// Bundle, then each pooled stage.
var rowBenchCols = []int{320, 160, 80, 40}

// benchKernels runs body once per kernel the build has, as a sub-benchmark
// named after it.
func benchKernels(b *testing.B, body func(b *testing.B)) {
	old := KernelName()
	defer func() { _ = SetKernel(old) }()
	for _, name := range []string{"purego", "avx2"} {
		if !HasKernel(name) {
			continue
		}
		b.Run(name, func(b *testing.B) {
			if err := SetKernel(name); err != nil {
				b.Fatal(err)
			}
			body(b)
		})
	}
}

// benchRows runs op over `rows` rows of each benchmark width under each
// kernel; bytesPerElem is what op reads and writes per element, so the
// report's MB/s is the memory traffic. BenchmarkRowCopy is the roofline to
// read the others against.
func benchRows(b *testing.B, bytesPerElem int, op func(cols int) func()) {
	for _, cols := range rowBenchCols {
		b.Run(fmt.Sprint(cols), func(b *testing.B) {
			benchKernels(b, func(b *testing.B) {
				run := op(cols)
				b.SetBytes(int64(bytesPerElem * cols))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
			})
		})
	}
}

func benchRow(cols int) []float32 {
	return saltedFinite(rand.New(rand.NewSource(int64(cols))), cols, 0.5)
}

func BenchmarkRowCopy(b *testing.B) {
	benchRows(b, 8, func(cols int) func() {
		dst, src := make([]float32, cols), benchRow(cols)
		return func() { copy(dst, src) }
	})
}

var sinkF32 float32

func BenchmarkRowMaxAbs(b *testing.B) {
	benchRows(b, 4, func(cols int) func() {
		src := benchRow(cols)
		return func() { sinkF32 = MaxAbsFinite(src) }
	})
}

func BenchmarkRowTailBNReLU6(b *testing.B) {
	benchRows(b, 8, func(cols int) func() {
		dst, src := make([]float32, cols), benchRow(cols)
		return func() { rowTail(dst, src, tailBN|tailReLU, 1.1, 0.2, 0.9, -0.1, 6) }
	})
}

func BenchmarkRowReLU6(b *testing.B) {
	benchRows(b, 8, func(cols int) func() {
		dst, src := make([]float32, cols), benchRow(cols)
		return func() { ReLUClampRow(dst, src, 6) }
	})
}

func BenchmarkRowAxpy(b *testing.B) {
	benchRows(b, 12, func(cols int) func() {
		c, row := make([]float32, cols), benchRow(cols)
		return func() { axpyRow(c, row, 0.37) }
	})
}

func BenchmarkRowRequantize(b *testing.B) {
	benchRows(b, 5, func(cols int) func() {
		dst, acc := make([]int8, cols), saltedAcc(rand.New(rand.NewSource(1)), cols)
		return func() { RequantizeRow(dst, acc, 17, 0.0031, -127, 127) }
	})
}

func BenchmarkRowRescaleCodes(b *testing.B) {
	benchRows(b, 2, func(cols int) func() {
		dst, src := make([]int8, cols), randI8(rand.New(rand.NewSource(1)), cols)
		return func() { RescaleCodes(dst, src, 0.71, -127, 127) }
	})
}

// BenchmarkRowStoreTile is one whole 4×8 tile through each GEMM's store with
// the tail a Bundle fuses: bias-free, batch norm and ReLU6 on the float side,
// a requantise clamped to [0, hi] on the int8 side.
func BenchmarkRowStoreTile(b *testing.B) {
	b.Run("f32", func(b *testing.B) {
		benchKernels(b, func(b *testing.B) {
			const m = 8
			ep := RowEpilogue{Gamma: benchRow(m), Mean: benchRow(m), Inv: benchRow(m), Beta: benchRow(m), ReLU: true, Cap: 6}
			g := gemmCall{c: make([]float32, m*320), ldc: 320, row: ep}
			var tile [gemmMR * gemmNR]float32
			copy(tile[:], benchRow(len(tile)))
			b.SetBytes(2 * 4 * gemmMR * gemmNR)
			for i := 0; i < b.N; i++ {
				g.storeTile(&tile, 4, 8*(i%40), gemmMR, gemmNR, true, true)
			}
		})
	})
	b.Run("int8", func(b *testing.B) {
		benchKernels(b, func(b *testing.B) {
			const m = 8
			g := i8gemmCall{c8: make([]int8, m*320), n: 320, ldc: 320, mode: i8ModeRequant, mult: benchRow(m), lo: 0, hi: 93}
			var tile [i8MR * i8NR]int32
			copy(tile[:], saltedAcc(rand.New(rand.NewSource(2)), len(tile)))
			b.SetBytes(5 * i8MR * i8NR)
			for i := 0; i < b.N; i++ {
				g.storeTile(&tile, 4, 8*(i%40), i8MR, i8NR)
			}
		})
	})
}
