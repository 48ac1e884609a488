package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func randI8(rng *rand.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = int8(rng.Intn(255) - 127) // [-127, 127]
	}
	return s
}

// refInt8GEMM is an independent triple-loop oracle (int64 accumulation to
// rule out any int32 aliasing mistakes in the kernel under test; results
// must still fit int32 for valid inputs).
func refInt8GEMM(a, b []int8, m, n, k int) []int32 {
	c := make([]int32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int64
			for p := 0; p < k; p++ {
				acc += int64(a[i*k+p]) * int64(b[p*n+j])
			}
			c[i*n+j] = int32(acc)
		}
	}
	return c
}

// i8Problem is one int8 GEMM with a drawn per-row epilogue and the exact
// int32 product from the independent reference.
type i8Problem struct {
	a, b   []int8
	bias   []int32
	mult   []float32
	lo, hi int8
	ref    []int32
}

func newI8Problem(rng *rand.Rand, m, n, k int) i8Problem {
	p := i8Problem{a: randI8(rng, m*k), b: randI8(rng, k*n),
		bias: make([]int32, m), mult: make([]float32, m), lo: 0, hi: 113}
	for i := range p.mult {
		p.bias[i] = int32(rng.Intn(2001) - 1000)
		p.mult[i] = float32(rng.Float64()*0.01 + 1e-4)
	}
	p.ref = refInt8GEMM(p.a, p.b, m, n, k)
	return p
}

// i8Paths runs fn on both production int8 paths: the blocked kernel at one
// and three workers (parallel threshold 0), and the small-problem kernel.
func i8Paths(fn func(path string)) {
	forcePath(true, func() {
		withWorkers(1, func() { fn("blocked") })
		withWorkers(3, func() { fn("blocked/3 workers") })
	})
	forcePath(false, func() { fn("small") })
}

// TestInt8GEMMGoldenVsNaive checks the raw int32 epilogue of both paths
// against the independent reference over the remainder-tile grid (odd and
// even k exercise the pair packing's zero pad).
func TestInt8GEMMGoldenVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gemmSweep(func(m, n, k int) {
		p := newI8Problem(rng, m, n, k)
		i8Paths(func(path string) {
			got := make([]int32, m*n)
			Int8GEMMInto(got, p.a, p.b, m, n, k)
			for i, want := range p.ref {
				if got[i] != want {
					t.Fatalf("%s m=%d n=%d k=%d: c[%d] = %d, want %d", path, m, n, k, i, got[i], want)
				}
			}
		})
	})
}

// TestInt8GEMMLongK covers k > i8KC, which the blocked kernel does not
// handle (k is unblocked by design): all three epilogues must come from the
// small-problem kernel even with the blocked path forced.
func TestInt8GEMMLongK(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, n, k := 3, 5, i8KC+17
	p := newI8Problem(rng, m, n, k)
	forceBlocked(func() {
		got32, got8, gotF := make([]int32, m*n), make([]int8, m*n), make([]float32, m*n)
		Int8GEMMInto(got32, p.a, p.b, m, n, k)
		Int8GEMMRequantInto(got8, p.a, p.b, m, n, k, Int8Epilogue{Bias: p.bias, Mult: p.mult, Lo: p.lo, Hi: p.hi})
		Int8GEMMDequantInto(gotF, p.a, p.b, m, n, k, Int8Epilogue{Bias: p.bias, Mult: p.mult})
		for i, acc := range p.ref {
			r := i / n
			if got32[i] != acc || got8[i] != RequantizeRNE(acc+p.bias[r], p.mult[r], p.lo, p.hi) ||
				gotF[i] != float32(float64(acc+p.bias[r])*float64(p.mult[r])) {
				t.Fatalf("element %d: int32 %d requant %d dequant %v from accumulator %d", i, got32[i], got8[i], gotF[i], acc)
			}
		}
	})
}

// TestRequantizeRNE pins round-half-to-even semantics and clamping of the
// requantize epilogue.
func TestRequantizeRNE(t *testing.T) {
	cases := []struct {
		acc    int32
		mult   float32
		lo, hi int8
		want   int8
	}{
		{5, 0.5, -127, 127, 2},    // 2.5 rounds to even 2, not 3
		{7, 0.5, -127, 127, 4},    // 3.5 rounds to even 4
		{-5, 0.5, -127, 127, -2},  // -2.5 rounds to even -2
		{-7, 0.5, -127, 127, -4},  // -3.5 rounds to even -4
		{3, 0.5, -127, 127, 2},    // 1.5 -> 2
		{1, 0.5, -127, 127, 0},    // 0.5 -> 0
		{1000, 1, -127, 127, 127}, // clamp hi
		{-1000, 1, -127, 127, -127},
		{100, 1, 0, 127, 100},
		{-100, 1, 0, 127, 0}, // fused ReLU clamps negatives to 0
		{90, 1, 0, 75, 75},   // fused ReLU6 cap in code units
		{0, 0.3, -127, 127, 0},
	}
	for _, c := range cases {
		if got := RequantizeRNE(c.acc, c.mult, c.lo, c.hi); got != c.want {
			t.Errorf("RequantizeRNE(%d, %v, %d, %d) = %d, want %d", c.acc, c.mult, c.lo, c.hi, got, c.want)
		}
	}
}

// TestInt8GEMMRequantGolden checks the fused requantize epilogue of both
// paths against requantizing the reference int32 result elementwise, with
// and without a bias.
func TestInt8GEMMRequantGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gemmSweep(func(m, n, k int) {
		p := newI8Problem(rng, m, n, k)
		ep := Int8Epilogue{Bias: p.bias, Mult: p.mult, Lo: p.lo, Hi: p.hi}
		if (m+n+k)%4 == 0 {
			ep.Bias = nil // a nil Bias means zero
		}
		i8Paths(func(path string) {
			got := make([]int8, m*n)
			Int8GEMMRequantInto(got, p.a, p.b, m, n, k, ep)
			for i, acc := range p.ref {
				if ep.Bias != nil {
					acc += ep.Bias[i/n]
				}
				if want := RequantizeRNE(acc, ep.Mult[i/n], ep.Lo, ep.Hi); got[i] != want {
					t.Fatalf("%s m=%d n=%d k=%d: dst[%d] = %d, want %d", path, m, n, k, i, got[i], want)
				}
			}
		})
	})
}

// TestInt8GEMMDequantGolden checks the dequantize-to-float32 epilogue of
// both paths.
func TestInt8GEMMDequantGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	gemmSweep(func(m, n, k int) {
		p := newI8Problem(rng, m, n, k)
		i8Paths(func(path string) {
			got := make([]float32, m*n)
			Int8GEMMDequantInto(got, p.a, p.b, m, n, k, Int8Epilogue{Bias: p.bias, Mult: p.mult})
			for i, acc := range p.ref {
				if want := float32(float64(acc+p.bias[i/n]) * float64(p.mult[i/n])); got[i] != want {
					t.Fatalf("%s m=%d n=%d k=%d: dst[%d] = %v, want %v", path, m, n, k, i, got[i], want)
				}
			}
		})
	})
}

// TestInt8GEMMColumnStride: into a destination whose rows are wider than n
// (Int8Epilogue.Ldc), both epilogues store exactly the packed store's
// result, row for row, and write nothing between the rows — over the
// remainder-tile grid, on both paths, under each micro-kernel.
func TestInt8GEMMColumnStride(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	kernels := []string{"purego"}
	if HasKernel("avx2") {
		kernels = append(kernels, "avx2")
	}
	const gap8 = int8(-128) // never a code: the epilogue clamps to [0, 113]
	gapF := math.Float32frombits(0x7fc0dead)
	gemmSweep(func(m, n, k int) {
		p := newI8Problem(rng, m, n, k)
		ep := Int8Epilogue{Bias: p.bias, Mult: p.mult, Lo: p.lo, Hi: p.hi}
		want8, wantF := make([]int8, m*n), make([]float32, m*n)
		withKernel(t, "purego", func() {
			Int8GEMMRequantInto(want8, p.a, p.b, m, n, k, ep)
			Int8GEMMDequantInto(wantF, p.a, p.b, m, n, k, ep)
		})
		for _, pad := range []int{1, i8NR + 3} {
			ep.Ldc = n + pad
			for _, kernel := range kernels {
				withKernel(t, kernel, func() {
					i8Paths(func(path string) {
						got8, gotF := make([]int8, (m-1)*ep.Ldc+n), make([]float32, (m-1)*ep.Ldc+n)
						for i := range got8 {
							got8[i], gotF[i] = gap8, gapF
						}
						Int8GEMMRequantInto(got8, p.a, p.b, m, n, k, ep)
						Int8GEMMDequantInto(gotF, p.a, p.b, m, n, k, ep)
						for i := range got8 {
							r, c := i/ep.Ldc, i%ep.Ldc
							w8, wF := gap8, gapF
							if c < n {
								w8, wF = want8[r*n+c], wantF[r*n+c]
							}
							if got8[i] != w8 || math.Float32bits(gotF[i]) != math.Float32bits(wF) {
								t.Fatalf("%s %s m=%d n=%d k=%d ldc=%d: element (%d,%d) = %d / %v, want %d / %v", kernel, path, m, n, k, ep.Ldc, r, c, got8[i], gotF[i], w8, wF)
							}
						}
					})
				})
			}
		}
	})
}

// TestInt8GEMMParallelDeterminism verifies the split across workers is
// bitwise invariant: int32 accumulation is exact and the requantize
// epilogue is elementwise, so any worker count must produce identical
// bytes.
func TestInt8GEMMParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, n, k := 96, 1280, 48
	a := randI8(rng, m*k)
	b := randI8(rng, k*n)
	ep := Int8Epilogue{Mult: make([]float32, m), Lo: -127, Hi: 127}
	for i := range ep.Mult {
		ep.Mult[i] = float32(rng.Float64() * 0.01)
	}
	ref32 := make([]int32, m*n)
	ref8 := make([]int8, m*n)
	withWorkers(1, func() {
		Int8GEMMInto(ref32, a, b, m, n, k)
		Int8GEMMRequantInto(ref8, a, b, m, n, k, ep)
	})
	for _, w := range []int{2, 3, 8} {
		got32 := make([]int32, m*n)
		got8 := make([]int8, m*n)
		withWorkers(w, func() {
			Int8GEMMInto(got32, a, b, m, n, k)
			Int8GEMMRequantInto(got8, a, b, m, n, k, ep)
		})
		for i := range ref32 {
			if got32[i] != ref32[i] || got8[i] != ref8[i] {
				t.Fatalf("workers=%d: element %d differs from serial result", w, i)
			}
		}
	}
}

// TestInt8GEMMSteadyStateAllocs pins the zero-allocation contract of the
// serial blocked int8 kernel.
func TestInt8GEMMSteadyStateAllocs(t *testing.T) {
	oldPar := MaxParallelism
	MaxParallelism = 1
	defer func() { MaxParallelism = oldPar }()
	rng := rand.New(rand.NewSource(12))
	m, n, k := 48, 640, 27
	a := randI8(rng, m*k)
	b := randI8(rng, k*n)
	dst := make([]int8, m*n)
	ep := Int8Epilogue{Mult: make([]float32, m), Lo: -127, Hi: 127}
	for i := range ep.Mult {
		ep.Mult[i] = 0.01
	}
	forceBlocked(func() {
		Int8GEMMRequantInto(dst, a, b, m, n, k, ep) // warm the scratch pool
		if allocs := testing.AllocsPerRun(20, func() {
			Int8GEMMRequantInto(dst, a, b, m, n, k, ep)
		}); allocs != 0 {
			t.Errorf("Int8GEMMRequantInto steady state: %v allocs/op, want 0", allocs)
		}
	})
}

// TestInt8Im2Col checks the one im2col loop at both element types on the
// same values, and the tensor-form Im2Col against the slice form it wraps.
func TestInt8Im2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, cfg := range []struct{ c, h, w, kh, kw, stride, pad int }{
		{3, 8, 8, 3, 3, 1, 1},
		{2, 7, 5, 3, 3, 2, 1},
		{1, 4, 4, 1, 1, 1, 0},
		{4, 6, 6, 2, 2, 2, 0},
	} {
		img8 := randI8(rng, cfg.c*cfg.h*cfg.w)
		imgF := New(cfg.c, cfg.h, cfg.w)
		for i, v := range img8 {
			imgF.Data[i] = float32(v)
		}
		outH := ConvOut(cfg.h, cfg.kh, cfg.stride, cfg.pad)
		outW := ConvOut(cfg.w, cfg.kw, cfg.stride, cfg.pad)
		rows, cols := cfg.c*cfg.kh*cfg.kw, outH*outW
		col8 := make([]int8, rows*cols)
		Im2ColInto(col8, img8, cfg.c, cfg.h, cfg.w, cfg.kh, cfg.kw, cfg.stride, cfg.pad)
		colF := make([]float32, rows*cols)
		Im2ColInto(colF, imgF.Data, cfg.c, cfg.h, cfg.w, cfg.kh, cfg.kw, cfg.stride, cfg.pad)
		colT := New(rows, cols)
		Im2Col(colT, imgF, cfg.kh, cfg.kw, cfg.stride, cfg.pad)
		for i := range col8 {
			if float32(col8[i]) != colF[i] {
				t.Fatalf("%+v: int8 col[%d] = %d, float32 %v", cfg, i, col8[i], colF[i])
			}
			if colT.Data[i] != colF[i] {
				t.Fatalf("%+v: Im2Col col[%d] = %v, Im2ColInto %v", cfg, i, colT.Data[i], colF[i])
			}
		}
	}
}

// TestInt8GEMMShapePanics checks argument validation of all three entry
// points.
func TestInt8GEMMShapePanics(t *testing.T) {
	a, b := make([]int8, 6), make([]int8, 6)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"short-c", func() { Int8GEMMInto(make([]int32, 3), a, b, 2, 2, 3) }},
		{"zero-dim", func() { Int8GEMMInto(make([]int32, 4), a, b, 2, 2, 0) }},
		{"short-mult", func() {
			Int8GEMMRequantInto(make([]int8, 4), a, b, 2, 2, 3, Int8Epilogue{Mult: make([]float32, 1)})
		}},
		{"short-bias", func() {
			Int8GEMMDequantInto(make([]float32, 4), a, b, 2, 2, 3, Int8Epilogue{Bias: make([]int32, 1), Mult: make([]float32, 2)})
		}},
		{"im2col-short", func() { Im2ColInto(make([]int8, 3), make([]int8, 16), 1, 4, 4, 3, 3, 1, 1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// TestRequantizeRNEMatchesMath cross-checks the fast path against a direct
// math.RoundToEven formulation over a dense sweep.
func TestRequantizeRNEMatchesMath(t *testing.T) {
	for acc := int32(-3000); acc <= 3000; acc += 7 {
		for _, mult := range []float32{0.001, 0.25, 0.5, 1.0 / 3.0} {
			want := math.RoundToEven(float64(acc) * float64(mult))
			if want > 127 {
				want = 127
			}
			if want < -127 {
				want = -127
			}
			if got := RequantizeRNE(acc, mult, -127, 127); int(got) != int(want) {
				t.Fatalf("RequantizeRNE(%d, %v) = %d, want %v", acc, mult, got, want)
			}
		}
	}
}

// BenchmarkInt8VsFloatGEMM is referenced by `make bench-quant`; keep a
// smoke test that the bench bodies run.
func TestInt8BenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke skipped in short mode")
	}
	res := testing.Benchmark(func(b *testing.B) {
		benchInt8Shape(b, 48, 27, 64)
	})
	if res.N < 1 {
		t.Fatal("int8 bench did not run")
	}
	runtime.KeepAlive(fmt.Sprintf("%v", res))
}
