package tensor

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
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
				Int8GEMMDequantInto(refF, a, b, m, n, k, Int8Epilogue{Bias: ep.Bias, Mult: dqMult})
			})
			withKernel(t, "avx2", func() {
				Int8GEMMInto(asm32, a, b, m, n, k)
				Int8GEMMRequantInto(asm8, a, b, m, n, k, ep)
				Int8GEMMDequantInto(asmF, a, b, m, n, k, Int8Epilogue{Bias: ep.Bias, Mult: dqMult})
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

// requireSeam checks every dispatch variable of the kernel seam against the
// state SetKernel must have left it in: under purego the two micro-kernel
// variables hold the Go references, the small-problem crossover is the Go
// kernel's and EVERY field of the row table is nil, so no assembly routine is
// reachable from any entry point of this package, internal/nn or
// internal/quant (TestAssemblyOnlyBehindSeam shows these variables are the
// only way to one); under avx2 every one of them holds an assembly routine.
// The row table is walked by reflection: a kernel added to it later cannot
// be left out of the switch.
func requireSeam(t *testing.T, asm bool) {
	t.Helper()
	samefn := func(a, b any) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }
	if got := !samefn(gemmMicro, gemmMicroFunc(microKernelRef)); got != asm {
		t.Errorf("gemmMicro is assembly: %v, want %v", got, asm)
	}
	if got := !samefn(i8Micro, i8MicroFunc(i8MicroKernelRef)); got != asm {
		t.Errorf("i8Micro is assembly: %v, want %v", got, asm)
	}
	if want := map[bool]int{true: gemmMinBlockedKAsm, false: gemmMinBlockedKPure}[asm]; gemmMinBlockedK != want {
		t.Errorf("gemmMinBlockedK = %d, want %d", gemmMinBlockedK, want)
	}
	table := reflect.ValueOf(rows)
	for i := 0; i < table.NumField(); i++ {
		if f := table.Field(i); f.Kind() != reflect.Func {
			t.Errorf("rows.%s is a %v: the table holds kernels only, so that this walk covers the seam", table.Type().Field(i).Name, f.Kind())
		} else if f.IsNil() == asm {
			t.Errorf("rows.%s is nil: %v, want %v", table.Type().Field(i).Name, f.IsNil(), !asm)
		}
	}
	if want := map[bool]string{true: "avx2", false: "purego"}[asm]; KernelName() != want || Int8KernelName() != want {
		t.Errorf("kernel names %q and %q, want %q", KernelName(), Int8KernelName(), want)
	}
}

// TestAssemblyOnlyBehindSeam reads the source of the three kernel-bearing
// packages: internal/nn and internal/quant have no assembly; every TEXT
// symbol of this package's .s files is declared in a file built only under
// `amd64 && !purego`, is named nowhere else, and the two functions that hand
// the routines out — nativeKernels and nativeRowKernels — are called from
// kernel.go alone. With requireSeam, that is "after SetKernel("purego") no
// assembly routine is reachable".
func TestAssemblyOnlyBehindSeam(t *testing.T) {
	for _, dir := range []string{"../nn", "../quant"} {
		if asm, _ := filepath.Glob(filepath.Join(dir, "*.s")); len(asm) > 0 {
			t.Errorf("%s has assembly outside the kernel seam: %v", dir, asm)
		}
	}
	symbols := map[string]bool{}
	asmFiles, _ := filepath.Glob("*.s")
	for _, name := range asmFiles {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(src), "//go:build amd64 && !purego\n") {
			t.Errorf("%s is not built under `amd64 && !purego` only", name)
		}
		for _, m := range regexp.MustCompile(`(?m)^TEXT ·(\w+)\(SB\)`).FindAllStringSubmatch(string(src), -1) {
			symbols[m[1]] = true
		}
	}
	if len(symbols) < 2+reflect.TypeOf(rows).NumField() {
		t.Fatalf("found %d TEXT symbols, fewer than the seam's variables hold: %v", len(symbols), symbols)
	}
	goFiles, _ := filepath.Glob("*.go")
	fset := token.NewFileSet()
	declared := map[string]bool{}
	for _, name := range goFiles {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		tagged := strings.HasPrefix(string(src), "//go:build amd64 && !purego\n")
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					declared[n.Name.Name] = true
					if !symbols[n.Name.Name] {
						t.Errorf("%s declares %s without a body, but no .s file defines it", name, n.Name.Name)
					}
				}
			case *ast.Ident:
				if symbols[n.Name] && !tagged {
					t.Errorf("%s names the assembly routine %s outside the tagged declaration files", name, n.Name)
				}
				if (n.Name == "nativeKernels" || n.Name == "nativeRowKernels") && !tagged && name != "kernel.go" && name != "gemm_noasm.go" {
					t.Errorf("%s uses %s: only SetKernel and HasKernel may", name, n.Name)
				}
			}
			return true
		})
	}
	for sym := range symbols {
		if !declared[sym] {
			t.Errorf("assembly routine %s has no Go declaration", sym)
		}
	}
}

// TestSetKernel covers the selection API: round-trips, auto behaviour,
// unknown names, the HasKernel/SetKernel agreement, and that one call
// switches every dispatch variable.
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
	requireSeam(t, false)
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
	requireSeam(t, HasKernel("avx2"))
	if err := SetKernel("purego"); err != nil {
		t.Fatalf("SetKernel(purego) after avx2: %v", err)
	}
	requireSeam(t, false)
	if err := SetKernel("auto"); err != nil {
		t.Fatalf("SetKernel(auto): %v", err)
	}
	requireSeam(t, HasKernel("avx2"))
}
