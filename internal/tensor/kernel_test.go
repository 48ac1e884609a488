package tensor

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// withKernel runs fn with the named micro-kernel dispatched, restoring the
// previous selection afterwards. Tests that need a kernel unavailable on
// the host (or in a purego build) must gate on HasKernel first.
func withKernel(t *testing.T, name string, fn func()) {
	t.Helper()
	old := gemmKernelName // int8 selection follows the float name
	if err := SetKernel(name); err != nil {
		t.Fatalf("SetKernel(%q): %v", name, err)
	}
	defer func() {
		if err := SetKernel(old); err != nil {
			t.Fatalf("restoring kernel %q: %v", old, err)
		}
	}()
	fn()
}

// kernelShapes exercises every remainder path of the 4×8 micro-tile: full
// tiles, m%MR != 0, n%NR != 0, both at once, unit dims, odd k, k == 1, and
// a k large enough to span multiple KC blocks on the float path.
var kernelShapes = []struct{ m, n, k int }{
	{4, 8, 16},    // exact single tile, even k
	{4, 8, 7},     // odd k (exercises the asm k-loop tail)
	{1, 1, 1},     // degenerate
	{5, 9, 3},     // m%4 and n%8 remainders, odd k
	{7, 23, 31},   // all-remainder, odd everything
	{12, 64, 1},   // k == 1
	{13, 17, 129}, // remainders with k < KC
	{8, 16, 300},  // float path: spans gemmKC=256 (two k blocks)
}

// TestKernelEquivalenceFloat pins the tentpole contract: the AVX2 no-FMA
// assembly kernel is BITWISE identical to the pure-Go reference on every
// exported float32 entry point — plain, accumulate, both transposes, and
// the row/col bias epilogues — across all remainder shapes.
func TestKernelEquivalenceFloat(t *testing.T) {
	if !HasKernel("avx2") {
		t.Skip("no AVX2 kernel on this CPU or build; nothing to compare")
	}
	for _, v := range matmulVariants {
		t.Run(v.name, func(t *testing.T) {
			for _, sh := range kernelShapes {
				c0, a, b, bias := v.op.operands(rand.New(rand.NewSource(99)), sh.m, sh.n, sh.k)
				ref, asm := c0.Clone(), c0.Clone()
				withKernel(t, "purego", func() { forceBlocked(func() { v.call(ref, a, b, bias) }) })
				withKernel(t, "avx2", func() { forceBlocked(func() { v.call(asm, a, b, bias) }) })
				for i := range ref.Data {
					if math.Float32bits(asm.Data[i]) != math.Float32bits(ref.Data[i]) {
						t.Fatalf("m=%d n=%d k=%d: element %d: avx2 %v (0x%08x) != purego %v (0x%08x)",
							sh.m, sh.n, sh.k, i,
							asm.Data[i], math.Float32bits(asm.Data[i]),
							ref.Data[i], math.Float32bits(ref.Data[i]))
					}
				}
			}
		})
	}
}

// TestKernelEquivalenceInt8 pins the same contract for the int8 kernel on
// all three epilogues (int32, requantize, dequantize). Integer arithmetic
// is exact, so equality must hold bit for bit — including the float32
// outputs of the dequantize epilogue.
func TestKernelEquivalenceInt8(t *testing.T) {
	if !HasKernel("avx2") {
		t.Skip("no AVX2 kernel on this CPU or build; nothing to compare")
	}
	rng := rand.New(rand.NewSource(41))
	forceBlocked(func() {
		for _, sh := range kernelShapes {
			m, n, k := sh.m, sh.n, sh.k
			a := randI8(rng, m*k)
			b := randI8(rng, k*n)
			ep := Int8Epilogue{Bias: make([]int32, m), Mult: make([]float32, m), Lo: -127, Hi: 127}
			dqMult := make([]float32, m)
			for i := 0; i < m; i++ {
				ep.Bias[i] = int32(rng.Intn(2000) - 1000)
				ep.Mult[i] = float32(rng.Float64() * 0.05)
				dqMult[i] = float32(rng.Float64())
			}
			ref32, asm32 := make([]int32, m*n), make([]int32, m*n)
			ref8, asm8 := make([]int8, m*n), make([]int8, m*n)
			refF, asmF := make([]float32, m*n), make([]float32, m*n)
			withKernel(t, "purego", func() {
				Int8GEMMInto(ref32, a, b, m, n, k)
				Int8GEMMRequantInto(ref8, a, b, m, n, k, ep)
				Int8GEMMDequantInto(refF, a, b, m, n, k, ep.Bias, dqMult)
			})
			withKernel(t, "avx2", func() {
				Int8GEMMInto(asm32, a, b, m, n, k)
				Int8GEMMRequantInto(asm8, a, b, m, n, k, ep)
				Int8GEMMDequantInto(asmF, a, b, m, n, k, ep.Bias, dqMult)
			})
			for i := range ref32 {
				if asm32[i] != ref32[i] {
					t.Fatalf("m=%d n=%d k=%d int32: element %d: avx2 %d != purego %d", m, n, k, i, asm32[i], ref32[i])
				}
				if asm8[i] != ref8[i] {
					t.Fatalf("m=%d n=%d k=%d requant: element %d: avx2 %d != purego %d", m, n, k, i, asm8[i], ref8[i])
				}
				if math.Float32bits(asmF[i]) != math.Float32bits(refF[i]) {
					t.Fatalf("m=%d n=%d k=%d dequant: element %d: avx2 %v != purego %v", m, n, k, i, asmF[i], refF[i])
				}
			}
		}
	})
}

// TestKernelParallelDeterminism checks that the asm path keeps the
// column-split determinism contract: results are byte-identical across
// MaxParallelism settings, because the split never changes any row's
// k-summation order.
func TestKernelParallelDeterminism(t *testing.T) {
	if !HasKernel("avx2") {
		t.Skip("no AVX2 kernel on this CPU or build")
	}
	oldPar := MaxParallelism
	defer func() { MaxParallelism = oldPar }()
	rng := rand.New(rand.NewSource(23))
	m, n, k := 48, 640, 65
	a, b := randMat(rng, m, k), randMat(rng, k, n)
	c1, c8 := New(m, n), New(m, n)
	ai := randI8(rng, m*k)
	bi := randI8(rng, k*n)
	i1, i8g := make([]int32, m*n), make([]int32, m*n)
	withKernel(t, "avx2", func() {
		forceBlocked(func() {
			MaxParallelism = 1
			MatMulInto(c1, a, b)
			MaxParallelism = 8
			MatMulInto(c8, a, b)
		})
		forceBlocked(func() {
			MaxParallelism = 1
			Int8GEMMInto(i1, ai, bi, m, n, k)
			MaxParallelism = 8
			Int8GEMMInto(i8g, ai, bi, m, n, k)
		})
	})
	for i := range c1.Data {
		if math.Float32bits(c1.Data[i]) != math.Float32bits(c8.Data[i]) {
			t.Fatalf("float element %d differs across parallelism: %v vs %v", i, c1.Data[i], c8.Data[i])
		}
	}
	for i := range i1 {
		if i1[i] != i8g[i] {
			t.Fatalf("int8 element %d differs across parallelism: %d vs %d", i, i1[i], i8g[i])
		}
	}
}

// TestSetKernel covers the selection API: round-trips, auto behaviour,
// unknown names, and the HasKernel/SetKernel agreement.
func TestSetKernel(t *testing.T) {
	old := KernelName()
	defer func() {
		if err := SetKernel(old); err != nil {
			t.Fatalf("restoring kernel %q: %v", old, err)
		}
	}()
	if err := SetKernel("purego"); err != nil {
		t.Fatalf("SetKernel(purego): %v", err)
	}
	if KernelName() != "purego" || Int8KernelName() != "purego" {
		t.Fatalf("after purego: float=%q int8=%q", KernelName(), Int8KernelName())
	}
	if err := SetKernel("nope"); err == nil {
		t.Fatal("SetKernel(nope) must error")
	} else if KernelName() != "purego" {
		t.Fatalf("failed SetKernel changed selection to %q", KernelName())
	}
	// The removed opt-in FMA kernel is an unknown name like any other.
	if err := SetKernel("avx2fma"); err == nil || !strings.Contains(err.Error(), "unknown kernel") || HasKernel("avx2fma") {
		t.Fatalf("SetKernel(avx2fma) = %v, HasKernel = %v; want the unknown-kernel error", err, HasKernel("avx2fma"))
	}
	err := SetKernel("avx2")
	if HasKernel("avx2") && err != nil {
		t.Fatalf("HasKernel(avx2) but SetKernel failed: %v", err)
	}
	if !HasKernel("avx2") && err == nil {
		t.Fatal("!HasKernel(avx2) but SetKernel succeeded")
	}
	if HasKernel("avx2") && KernelName() != "avx2" {
		t.Fatalf("after SetKernel(avx2): KernelName=%q", KernelName())
	}
	if err := SetKernel("auto"); err != nil {
		t.Fatalf("SetKernel(auto): %v", err)
	}
	if want := map[bool]string{true: "avx2", false: "purego"}[HasKernel("avx2")]; KernelName() != want {
		t.Fatalf("auto selected %q, want %q", KernelName(), want)
	}
}
