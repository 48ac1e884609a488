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
	"slices"
	"strings"
	"testing"
)

// withKernel runs fn with the named micro-kernel dispatched, restoring the
// previous selection afterwards. Tests that need a kernel unavailable on
// the host (or in a purego build) must take it from availableKernels.
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

// kernelNames are every kernel SetKernel knows by name, portable first.
var kernelNames = []string{"purego", "avx2", "avx512"}

// availableKernels lists the kernels SetKernel accepts on this CPU and
// build: purego first, then each assembly kernel the host has.
func availableKernels() []string {
	old := gemmKernelName
	defer func() { _ = SetKernel(old) }()
	var names []string
	for _, name := range kernelNames {
		if SetKernel(name) == nil {
			names = append(names, name)
		}
	}
	return names
}

// asmKernels is availableKernels without purego.
func asmKernels() []string { return availableKernels()[1:] }

// eachKernel runs fn as one subtest per available kernel, with that kernel
// dispatched.
func eachKernel(t *testing.T, fn func(t *testing.T)) {
	for _, name := range availableKernels() {
		t.Run(name, func(t *testing.T) { withKernel(t, name, func() { fn(t) }) })
	}
}

// kernelShapes exercises every remainder path of the 4×16 micro-tile: full
// tiles, m%MR != 0, n < NR, n%NR ∈ {1, 8, 15}, unit dims, odd k, k == 1, and
// k just under, at and just past KC, where the float path folds a second
// k block into C.
var kernelShapes = []struct{ m, n, k int }{
	{4, 16, 16},   // exact single tile, even k
	{4, 16, 7},    // odd k (exercises the asm k-loop tail)
	{1, 1, 1},     // degenerate
	{5, 9, 3},     // m%4 and n < 16 remainders, odd k
	{7, 23, 31},   // all-remainder, odd everything
	{12, 64, 1},   // k == 1
	{13, 17, 129}, // n%16 == 1, k < KC
	{6, 24, 255},  // n%16 == 8, k = KC-1
	{9, 31, 256},  // n%16 == 15, k = KC
	{10, 33, 257}, // n%16 == 1, k = KC+1: two k blocks
	{8, 16, 300},  // float path: spans gemmKC=256 (two k blocks)
}

// TestKernelEquivalenceFloat pins the contract of the float tile: each
// assembly kernel the host has is BITWISE identical to the pure-Go
// reference on every exported float32 entry point — plain, accumulate, both
// transposes, the bias epilogue and every batch-norm and clamp tail — across
// all remainder shapes.
func TestKernelEquivalenceFloat(t *testing.T) {
	kernels := asmKernels()
	if len(kernels) == 0 {
		t.Skip("no assembly kernel on this CPU or build; nothing to compare")
	}
	variants := slices.Clone(matmulVariants)
	for _, ep := range []struct {
		name     string
		bn, relu bool
		cap      float32
	}{{"bn", true, false, 0}, {"relu", false, true, 0}, {"bn+relu6", true, true, 6}} {
		variants = append(variants, matmulVariant{"MatMulRowEpilogueInto/" + ep.name, matmulOp{rowBias: true}, func(c, a, b, bias *Tensor) {
			m := c.Dim(0)
			e := RowEpilogue{Bias: bias.Data, ReLU: ep.relu, Cap: ep.cap}
			if ep.bn {
				stats := rand.New(rand.NewSource(int64(m)))
				e.Gamma, e.Mean, e.Inv, e.Beta = randMat(stats, 1, m).Data, randMat(stats, 1, m).Data, randMat(stats, 1, m).Data, randMat(stats, 1, m).Data
			}
			MatMulRowEpilogueInto(c.Data, a.Data, b.Data, RowProduct{M: m, N: c.Dim(1), K: a.Dim(1), Ep: e})
		}})
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for _, sh := range kernelShapes {
				c0, a, b, bias := v.op.operands(rand.New(rand.NewSource(99)), sh.m, sh.n, sh.k)
				ref := c0.Clone()
				withKernel(t, "purego", func() { forceBlocked(func() { v.call(ref, a, b, bias) }) })
				for _, kernel := range kernels {
					asm := c0.Clone()
					withKernel(t, kernel, func() { forceBlocked(func() { v.call(asm, a, b, bias) }) })
					for i := range ref.Data {
						if math.Float32bits(asm.Data[i]) != math.Float32bits(ref.Data[i]) {
							t.Fatalf("m=%d n=%d k=%d: element %d: %s %v (0x%08x) != purego %v (0x%08x)",
								sh.m, sh.n, sh.k, i, kernel,
								asm.Data[i], math.Float32bits(asm.Data[i]),
								ref.Data[i], math.Float32bits(ref.Data[i]))
						}
					}
				}
			}
		})
	}
}

// TestKernelEquivalenceInt8 is the int8 tile's sweep: under every kernel —
// purego, avx2 and avx512vnni where the host has them — the blocked path
// gives the independent oracle's values on all three epilogues, dispatched
// over three workers, as Leaf calls and into a column window (Ldc), for m
// in and out of 4ℕ, n around one and two 16-column tiles and k from 1 to
// i8KC. At k = i8KC, all-(−127) operands and alternating ±127 ones give the
// largest sums the blocked path sees, so an instruction that saturated
// anywhere would show. Integer sums are exact: equal to the oracle under
// each kernel is bitwise equal across kernels.
func TestKernelEquivalenceInt8(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for _, m := range []int{1, 3, 4, 6, 9} {
			for _, n := range []int{1, 8, 15, 16, 17, 24, 31, 33} {
				for _, k := range []int{1, 2, 3, 255, i8KC - 1, i8KC} {
					checkInt8Blocked(t, newI8Problem(rng, m, n, k), m, n, k)
				}
			}
		}
		for _, fill := range []func(i int) int8{
			func(int) int8 { return -127 },
			func(i int) int8 { return int8(127 - 254*(i%2)) },
		} {
			m, n, k := 6, 33, i8KC
			p := newI8Problem(rng, m, n, k)
			for i := range p.a {
				p.a[i] = fill(i)
			}
			for i := range p.b {
				p.b[i] = fill(i)
			}
			p.ref = refInt8GEMM(p.a, p.b, m, n, k)
			if got := max(p.ref[0], -p.ref[0]); got != int32(k*127*127) {
				t.Fatalf("extreme operands sum to %d, want ±%d", got, k*127*127)
			}
			checkInt8Blocked(t, p, m, n, k)
		}
	})
}

// checkInt8Blocked runs p on the blocked path through every entry point and
// call form and compares each stored element with the oracle's epilogue.
func checkInt8Blocked(t *testing.T, p i8Problem, m, n, k int) {
	t.Helper()
	forceBlocked(func() {
		withWorkers(3, func() {
			got32 := make([]int32, m*n)
			Int8GEMMInto(got32, p.a, p.b, m, n, k)
			for i, acc := range p.ref {
				if got32[i] != acc {
					t.Fatalf("m=%d n=%d k=%d int32: element %d = %d, want %d", m, n, k, i, got32[i], acc)
				}
			}
			for _, form := range []struct {
				name string
				leaf bool
				ldc  int
			}{{"dispatched", false, 0}, {"leaf", true, 0}, {"window", false, n + 5}} {
				ep := Int8Epilogue{Bias: p.bias, Mult: p.mult, Lo: p.lo, Hi: p.hi, Leaf: form.leaf, Ldc: form.ldc}
				ldc := max(form.ldc, n)
				got8, gotF := make([]int8, (m-1)*ldc+n), make([]float32, (m-1)*ldc+n)
				Int8GEMMRequantInto(got8, p.a, p.b, m, n, k, ep)
				Int8GEMMDequantInto(gotF, p.a, p.b, m, n, k, ep)
				for i, acc := range p.ref {
					r, c := i/n, i%n
					want8 := RequantizeRNE(acc+p.bias[r], p.mult[r], p.lo, p.hi)
					wantF := float32(float64(acc+p.bias[r]) * float64(p.mult[r]))
					if got8[r*ldc+c] != want8 || math.Float32bits(gotF[r*ldc+c]) != math.Float32bits(wantF) {
						t.Fatalf("m=%d n=%d k=%d %s: element (%d,%d) = %d / %v, want %d / %v", m, n, k, form.name, r, c, got8[r*ldc+c], gotF[r*ldc+c], want8, wantF)
					}
				}
			}
		})
	})
}

// TestKernelParallelDeterminism checks that every kernel keeps the
// column-split determinism contract: results are byte-identical across
// MaxParallelism settings, because the split never changes any row's
// k-summation order.
func TestKernelParallelDeterminism(t *testing.T) {
	oldPar := MaxParallelism
	defer func() { MaxParallelism = oldPar }()
	rng := rand.New(rand.NewSource(23))
	m, n, k := 48, 640, 65
	a, b := randMat(rng, m, k), randMat(rng, k, n)
	ai := randI8(rng, m*k)
	bi := randI8(rng, k*n)
	eachKernel(t, func(t *testing.T) {
		c1, c8 := New(m, n), New(m, n)
		i1, i8g := make([]int32, m*n), make([]int32, m*n)
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
	})
}

// requireSeam checks every dispatch variable of the kernel seam against the
// state SetKernel(name) must have left it in: under purego the two
// micro-kernel variables hold the Go references, the small-problem crossover
// is the Go kernel's and EVERY field of the row table is nil, so no assembly
// routine is reachable from any entry point of this package, internal/nn or
// internal/quant (TestAssemblyOnlyBehindSeam shows these variables are the
// only way to one); under avx2 or avx512 every one of them holds an assembly
// routine, the float tile the named one. The row table is walked by
// reflection: a kernel added to it later cannot be left out of the switch.
func requireSeam(t *testing.T, name string) {
	t.Helper()
	asm := name != "purego"
	samefn := func(a, b any) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }
	if got := !samefn(gemmMicro, gemmMicroFunc(microKernelRef)); got != asm {
		t.Errorf("gemmMicro is assembly: %v, want %v", got, asm)
	}
	avx512, avx2, i8AVX2, i8VNNI, tile512 := nativeKernels()
	if want := map[string]gemmMicroFunc{"purego": microKernelRef, "avx2": avx2, "avx512": avx512}[name]; !samefn(gemmMicro, want) {
		t.Errorf("gemmMicro is not the %s kernel", name)
	}
	if (gemmTile != nil) != (name == "avx512") || name == "avx512" && !samefn(gemmTile, tile512) {
		t.Errorf("gemmTile is set: %v; want the AVX-512 tile under avx512 only", gemmTile != nil)
	}
	// avx512 takes the VNNI int8 tile where the CPU has one, else AVX2's.
	wantI8, wantI8Name := map[string]i8MicroFunc{"purego": i8MicroKernelRef, "avx2": i8AVX2, "avx512": i8AVX2}[name], map[bool]string{true: "avx2", false: "purego"}[asm]
	if name == "avx512" && i8VNNI != nil {
		wantI8, wantI8Name = i8VNNI, "avx512vnni"
	}
	if !samefn(i8Micro, wantI8) {
		t.Errorf("i8Micro is not the %s kernel", wantI8Name)
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
	if KernelName() != name || Int8KernelName() != wantI8Name {
		t.Errorf("kernel names %q and %q, want %q and %q", KernelName(), Int8KernelName(), name, wantI8Name)
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
					t.Errorf("%s uses %s: only SetKernel may", name, n.Name)
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
// unknown names, an error for exactly the kernels this host lacks, and that
// one call switches every dispatch variable.
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
	requireSeam(t, "purego")
	// The removed opt-in FMA kernel is an unknown name like any other, and
	// the error names every kernel there is.
	for _, name := range []string{"nope", "avx2fma"} {
		err := SetKernel(name)
		if err == nil || !strings.Contains(err.Error(), "unknown kernel") || !strings.Contains(err.Error(), "auto, purego, avx2 or avx512") {
			t.Fatalf("SetKernel(%q) = %v; want the unknown-kernel error listing every kernel", name, err)
		}
		if KernelName() != "purego" {
			t.Fatalf("failed SetKernel(%q) changed selection to %q", name, KernelName())
		}
	}
	avx512, avx2, _, _, _ := nativeKernels()
	have := map[string]bool{"avx2": avx2 != nil, "avx512": avx512 != nil}
	for _, name := range []string{"avx2", "avx512"} {
		err := SetKernel(name)
		if have[name] != (err == nil) {
			t.Fatalf("SetKernel(%q) = %v, but the host has it: %v", name, err, have[name])
		}
		if err != nil {
			requireSeam(t, "purego")
			continue
		}
		requireSeam(t, name)
		if err := SetKernel("purego"); err != nil {
			t.Fatalf("SetKernel(purego) after %s: %v", name, err)
		}
		requireSeam(t, "purego")
	}
	if err := SetKernel("auto"); err != nil {
		t.Fatalf("SetKernel(auto): %v", err)
	}
	names := availableKernels()
	requireSeam(t, names[len(names)-1])
}
