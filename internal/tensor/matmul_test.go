package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// forcePath runs fn with the blocked-vs-small-problem choice pinned for both
// element types: every call on the packed blocked kernel (true) or every
// call on runNaive (false), regardless of operand size. Int8 calls with
// k > i8KC stay on runNaive either way; the blocked kernel cannot hold them.
func forcePath(blocked bool, fn func()) {
	oldMACs, oldK := gemmMinBlockedMACs, gemmMinBlockedK
	defer func() { gemmMinBlockedMACs, gemmMinBlockedK = oldMACs, oldK }()
	if blocked {
		gemmMinBlockedMACs, gemmMinBlockedK = 0, 0
	} else {
		gemmMinBlockedMACs = math.MaxInt
	}
	fn()
}

func forceBlocked(fn func()) { forcePath(true, fn) }

// withWorkers runs fn with MaxParallelism pinned and the parallel threshold
// at 0, so any call with at least two micro-tile columns is split.
func withWorkers(workers int, fn func()) {
	oldPar, oldMin := MaxParallelism, gemmParallelMACs
	defer func() { MaxParallelism, gemmParallelMACs = oldPar, oldMin }()
	MaxParallelism, gemmParallelMACs = workers, 0
	fn()
}

func randMat(rng *rand.Rand, r, c int) *Tensor {
	t := New(r, c)
	t.RandNormal(rng, 0, 1)
	return t
}

// matmulOp is the flag set of one GEMM descriptor.
type matmulOp struct {
	aTrans, bTrans, acc, rowBias bool
}

// matmulVariant is one float32 entry point and the descriptor it stands for.
type matmulVariant struct {
	name string
	op   matmulOp
	call func(c, a, b, bias *Tensor)
}

// matmulVariants lists the exported float32 entry points with the
// descriptor each one stands for — the backward products also as leaf
// calls — and the two plain settings of acc and bTrans that no exported entry
// point has, set through gemmExec.
var matmulVariants = []matmulVariant{
	{"MatMulInto", matmulOp{}, func(c, a, b, _ *Tensor) { MatMulInto(c, a, b) }},
	{"MatMulAddInto", matmulOp{acc: true}, func(c, a, b, _ *Tensor) { matMulAddInto(c, a, b) }},
	{"MatMulTransposeAInto", matmulOp{aTrans: true}, func(c, a, b, _ *Tensor) { MatMulTransposeAInto(c, a, b, false) }},
	{"MatMulTransposeAAddInto", matmulOp{aTrans: true, acc: true}, func(c, a, b, _ *Tensor) { MatMulTransposeAAddInto(c, a, b) }},
	{"MatMulTransposeBInto", matmulOp{bTrans: true}, func(c, a, b, _ *Tensor) { matMulTransposeBInto(c, a, b) }},
	{"MatMulTransposeBAddInto", matmulOp{bTrans: true, acc: true}, func(c, a, b, _ *Tensor) { MatMulTransposeBAddInto(c, a, b, false) }},
	{"MatMulTransposeAInto/leaf", matmulOp{aTrans: true}, func(c, a, b, _ *Tensor) { MatMulTransposeAInto(c, a, b, true) }},
	{"MatMulTransposeBAddInto/leaf", matmulOp{bTrans: true, acc: true}, func(c, a, b, _ *Tensor) { MatMulTransposeBAddInto(c, a, b, true) }},
	{"MatMulRowEpilogueInto", matmulOp{rowBias: true}, func(c, a, b, bias *Tensor) {
		MatMulRowEpilogueInto(c.Data, a.Data, b.Data, RowProduct{M: c.Dim(0), N: c.Dim(1), K: a.Dim(1), Ep: RowEpilogue{Bias: bias.Data}})
	}},
}

// matMulAddInto is c += a·b.
func matMulAddInto(c, a, b *Tensor) {
	g := gemmOf("matMulAddInto", c, a, b, false, false)
	g.acc = true
	gemmExec(g)
}

// matMulTransposeBInto is c = a·bᵀ for b of shape [n,k].
func matMulTransposeBInto(c, a, b *Tensor) {
	gemmExec(gemmOf("matMulTransposeBInto", c, a, b, false, true))
}

// matMul is a·b into a fresh tensor.
func matMul(a, b *Tensor) *Tensor {
	c := New(a.Dim(0), b.Dim(1))
	MatMulInto(c, a, b)
	return c
}

// operands draws the stored operands of an m×n×k problem: a is [m,k] or,
// with aTrans, [k,m]; b is [k,n] or, with bTrans, [n,k]; c holds random
// values whether or not the op accumulates (an overwriting call must not
// read them); bias has one value per row.
func (op matmulOp) operands(rng *rand.Rand, m, n, k int) (c, a, b, bias *Tensor) {
	a, b = randMat(rng, m, k), randMat(rng, k, n)
	if op.aTrans {
		a = randMat(rng, k, m)
	}
	if op.bTrans {
		b = randMat(rng, n, k)
	}
	if op.rowBias {
		bias = randMat(rng, 1, m)
	}
	return randMat(rng, m, n), a, b, bias
}

// refKB is the summation contract of each production path, in naiveMatMul's
// terms: the blocked kernel folds one partial sum per KC block into C, the
// small-problem kernel forms a single dot product per element — except when
// it accumulates without bTrans, where the running sum lives in C itself.
// With both operands transposed there is only the blocked kernel.
func refKB(op matmulOp, k int, blocked bool) int {
	switch {
	case blocked || op.aTrans && op.bTrans:
		return gemmKC
	case op.acc && !op.bTrans:
		return 1
	}
	return k
}

// elems returns the index functions of op(A) and op(B) for operands stored
// with row strides lda and ldb.
func (op matmulOp) elems(a, b []float32, lda, ldb int) (ea, eb elemFunc) {
	ea, eb = rowMajor(a, lda), rowMajor(b, ldb)
	if op.aTrans {
		ea = transposed(a, lda)
	}
	if op.bTrans {
		eb = transposed(b, ldb)
	}
	return ea, eb
}

// reference evaluates the op on dense operands with naiveMatMul, starting
// from c0.
func (op matmulOp) reference(c0, a, b, bias *Tensor, m, n, k, kb int) *Tensor {
	want := c0.Clone()
	ea, eb := op.elems(a.Data, b.Data, a.Dim(1), b.Dim(1))
	var rowBias []float32
	if op.rowBias {
		rowBias = bias.Data
	}
	naiveMatMul(want.Data, n, ea, eb, m, n, k, kb, op.acc, rowBias)
	return want
}

func firstBitDiff(got, want []float32) int {
	for i, g := range got {
		if math.Float32bits(g) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// gemmSweep calls fn over the remainder-tile grid of the 4×16 float and
// 4×8 int8 micro-tiles — m in 1..2·MR+1, n in 1..17 and n%16 ∈ {1, 8, 15}
// past one tile, k in 1..2·i8NR+1 (odd and even k for int8 pair packing) —
// plus n = 29 (three column chunks at three workers), k just under, at and
// just past the float KC, and shapes that cross the MC and NC cache blocks
// of both element types.
func gemmSweep(fn func(m, n, k int)) {
	for m := 1; m <= 2*gemmMR+1; m++ {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 29, 31, 33} {
			for k := 1; k <= 2*i8NR+1; k++ {
				fn(m, n, k)
			}
		}
	}
	for _, s := range [][3]int{{64, 64, 64}, {65, 129, 7}, {129, 65, 9}, {5, 257, 48}, {3, 520, 5}, {6, 24, gemmKC - 1}, {7, 31, gemmKC}, {5, 33, gemmKC + 1}} {
		fn(s[0], s[1], s[2])
	}
}

// TestMatMulBlockedMatchesNaive checks both production float32 paths — the
// blocked kernel at one and three workers, and the small-problem kernel —
// against the independent reference, bit for bit, through every exported
// entry point over the remainder-tile grid and a k that spans two KC blocks,
// under every kernel the host has.
func TestMatMulBlockedMatchesNaive(t *testing.T) {
	kernels := availableKernels()
	for _, v := range matmulVariants {
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			check := func(m, n, k int) {
				c0, a, b, bias := v.op.operands(rng, m, n, k)
				want := map[bool]*Tensor{}
				for _, blocked := range []bool{true, false} {
					want[blocked] = v.op.reference(c0, a, b, bias, m, n, k, refKB(v.op, k, blocked))
				}
				for _, kernel := range kernels {
					for _, path := range []struct {
						name    string
						blocked bool
						workers int
					}{{"blocked", true, 1}, {"blocked/3 workers", true, 3}, {"small", false, 1}} {
						got := c0.Clone()
						withKernel(t, kernel, func() {
							forcePath(path.blocked, func() {
								withWorkers(path.workers, func() { v.call(got, a, b, bias) })
							})
						})
						if i := firstBitDiff(got.Data, want[path.blocked].Data); i >= 0 {
							t.Fatalf("%s %s m=%d n=%d k=%d: element %d = %v, reference %v", kernel, path.name, m, n, k, i, got.Data[i], want[path.blocked].Data[i])
						}
					}
				}
			}
			gemmSweep(check)
			check(5, 9, 2*gemmKC+3)
			check(1, 1, gemmKC+1)
		})
	}
}

// TestGemmDescriptor covers what no exported entry point reaches: every
// combination of the four descriptor flags (aTrans with bTrans, a bias on an
// accumulating call — ignored by both kernels) and leading dimensions wider
// than the operands, on both paths against the reference, under every kernel.
func TestGemmDescriptor(t *testing.T) {
	eachKernel(t, testGemmDescriptor)
}

func testGemmDescriptor(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const pad = 3
	for flags := 0; flags < 16; flags++ {
		op := matmulOp{flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0}
		for _, s := range [][3]int{{1, 1, 1}, {5, 9, 3}, {7, 23, 31}, {9, 17, gemmKC + 5}} {
			m, n, k := s[0], s[1], s[2]
			ar, ac, br, bc := m, k, k, n
			if op.aTrans {
				ar, ac = k, m
			}
			if op.bTrans {
				br, bc = n, k
			}
			lda, ldb, ldc := ac+pad, bc+pad, n+pad
			a, b, c0 := randMat(rng, ar, lda), randMat(rng, br, ldb), randMat(rng, m, ldc)
			call := gemmCall{a: a.Data, b: b.Data, m: m, n: n, k: k, lda: lda, ldb: ldb, ldc: ldc,
				aTrans: op.aTrans, bTrans: op.bTrans, acc: op.acc}
			ea, eb := op.elems(a.Data, b.Data, lda, ldb)
			if op.rowBias {
				call.row.Bias = randMat(rng, 1, m).Data
			}
			for _, blocked := range []bool{true, false} {
				got, want := c0.Clone(), c0.Clone()
				call.c = got.Data
				forcePath(blocked, func() { gemmExec(call) })
				naiveMatMul(want.Data, ldc, ea, eb, m, n, k, refKB(op, k, blocked), op.acc, call.row.Bias)
				// The padding columns of C compare too: neither kernel may
				// write past column n of a row.
				if i := firstBitDiff(got.Data, want.Data); i >= 0 {
					t.Fatalf("%+v blocked=%v m=%d n=%d k=%d: element %d = %v, reference %v", op, blocked, m, n, k, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestMatMulParallelMatchesSerial verifies that the worker-pool column split
// produces bitwise-identical results to the single-goroutine run under every
// kernel: the k-summation order of each element does not depend on the split.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	eachKernel(t, testMatMulParallelMatchesSerial)
}

func testMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 96, 432)
	b := randMat(rng, 432, 520)
	serial, par := New(96, 520), New(96, 520)
	withWorkers(1, func() { MatMulInto(serial, a, b) })
	withWorkers(4, func() { MatMulInto(par, a, b) })
	if i := firstBitDiff(par.Data, serial.Data); i >= 0 {
		t.Fatalf("parallel result differs at %d: %v vs %v", i, par.Data[i], serial.Data[i])
	}

	// Same check for an accumulating transpose variant.
	c0 := randMat(rng, 432, 520)
	c1 := c0.Clone()
	at := randMat(rng, 96, 432)
	bt := randMat(rng, 96, 520)
	withWorkers(1, func() { MatMulTransposeAAddInto(c0, at, bt) })
	withWorkers(4, func() { MatMulTransposeAAddInto(c1, at, bt) })
	if i := firstBitDiff(c1.Data, c0.Data); i >= 0 {
		t.Fatalf("parallel TransposeAAdd differs at %d: %v vs %v", i, c1.Data[i], c0.Data[i])
	}
}

// TestGemmPoolMixedTypes drives the one worker pool with float32 and int8
// GEMMs at once: several goroutines issue calls above the parallel
// threshold at MaxParallelism 4, every result must equal its serial one bit
// for bit, and the goroutines left parked afterwards must be one pool's
// worth, not one per element type.
func TestGemmPoolMixedTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const m, n, k = 48, 640, 96
	if m*n*k < gemmParallelMACs {
		t.Fatal("shape must sit above the parallel threshold")
	}
	af, bf := randMat(rng, m, k), randMat(rng, k, n)
	ai, bi := randI8(rng, m*k), randI8(rng, k*n)
	ep := Int8Epilogue{Mult: make([]float32, m), Lo: -127, Hi: 127}
	for i := range ep.Mult {
		ep.Mult[i] = float32(rng.Float64() * 0.01)
	}
	oldPar := MaxParallelism
	defer func() { MaxParallelism = oldPar }()

	// A first parallel call starts the pool, so the goroutine baseline below
	// includes its workers no matter which test ran before this one.
	MaxParallelism = 4
	MatMulInto(New(m, n), af, bf)
	before := runtime.NumGoroutine()

	MaxParallelism = 1
	wantF, wantI := New(m, n), make([]int8, m*n)
	MatMulInto(wantF, af, bf)
	Int8GEMMRequantInto(wantI, ai, bi, m, n, k, ep)

	MaxParallelism = 4
	const callers, rounds = 6, 8
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gotF, gotI := New(m, n), make([]int8, m*n)
			for r := 0; r < rounds; r++ {
				// Alternate the element type per goroutine and per round so
				// the workers see the two job kinds interleaved.
				if (g+r)%2 == 0 {
					MatMulInto(gotF, af, bf)
					if i := firstBitDiff(gotF.Data, wantF.Data); i >= 0 {
						errs <- fmt.Errorf("caller %d round %d: float element %d differs from serial", g, r, i)
						return
					}
				} else {
					Int8GEMMRequantInto(gotI, ai, bi, m, n, k, ep)
					for i := range gotI {
						if gotI[i] != wantI[i] {
							errs <- fmt.Errorf("caller %d round %d: int8 element %d differs from serial", g, r, i)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The callers have exited; give their goroutines a moment to be reaped.
	after := runtime.NumGoroutine()
	for i := 0; i < 100 && after > before; i++ {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("goroutines grew from %d to %d across mixed-type calls: int8 work started workers of its own", before, after)
	}
	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	if got, want := strings.Count(string(stacks), "created by skynet/internal/tensor.startGemmWorkers"), max(runtime.GOMAXPROCS(0), 8); got != want {
		t.Errorf("%d pool workers parked, want one pool of %d", got, want)
	}
}

// parked reports how many buffers l holds: with no call in flight, every one
// it has built since it was last emptied.
func (l *FreeList[T]) parked() int { return l.Len() }

// fill makes l hold at least n records.
func (l *FreeList[T]) fill(n int) {
	held := make([]*T, n)
	for i := range held {
		held[i] = l.Get()
	}
	for _, x := range held {
		l.Put(x)
	}
}

// empty drops every buffer l holds, so that parked counts from here on.
func (l *FreeList[T]) empty() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.items[:l.n])
	l.n = 0
}

// TestPackScratchFollowsChunksInFlight: packing panels belong to the chunks
// running, not to goroutines. From one caller at MaxParallelism w, warm
// GEMMs of either element type — dispatched, and as leaf calls from w lanes
// of a parallelRange body — leave each free list holding at least one and at
// most w panels, one per chunk that can run at once, however many workers
// the pool has parked; and a float-only sequence builds no int8 panel.
func TestPackScratchFollowsChunksInFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const m, n, k = 48, 640, 96
	if m*n*k < gemmParallelMACs || k < gemmMinBlockedKPure {
		t.Fatal("shape must take the blocked kernel and sit above the parallel threshold")
	}
	af, bf := randMat(rng, m, k), randMat(rng, k, n)
	ai, bi := randI8(rng, m*k), randI8(rng, k*n)
	ep := Int8Epilogue{Mult: make([]float32, m), Lo: -127, Hi: 127}
	for i := range ep.Mult {
		ep.Mult[i] = 0.01
	}
	leafEp := ep
	leafEp.Leaf = true
	oldPar := MaxParallelism
	defer func() { MaxParallelism = oldPar }()
	for _, w := range []int{1, 2, 4} {
		MaxParallelism = w
		cf, ci := make([][]float32, w), make([][]int8, w)
		for i := range cf {
			cf[i], ci[i] = make([]float32, m*n), make([]int8, m*n)
		}
		floatLeaves := func(lo, hi int) {
			for ; lo < hi; lo++ {
				MatMulRowEpilogueInto(cf[lo], af.Data, bf.Data, RowProduct{M: m, N: n, K: k, BandOf: n})
			}
		}
		i8Leaves := func(lo, hi int) {
			for ; lo < hi; lo++ {
				Int8GEMMRequantInto(ci[lo], ai, bi, m, n, k, leafEp)
			}
		}
		check := func(what string, wantI8 bool) {
			t.Helper()
			f, i := gemmScratchFree.parked(), i8ScratchFree.parked()
			if f < 1 || f > w {
				t.Errorf("w=%d, %s: %d float panels, want 1..%d", w, what, f, w)
			}
			if !wantI8 && i != 0 {
				t.Errorf("w=%d, %s: %d int8 panels, want none", w, what, i)
			}
			if wantI8 && (i < 1 || i > w) {
				t.Errorf("w=%d, %s: %d int8 panels, want 1..%d", w, what, i, w)
			}
		}
		gemmScratchFree.empty()
		i8ScratchFree.empty()
		for r := 0; r < 4; r++ {
			MatMulInto(FromSlice(cf[0], m, n), af, bf)
			parallelRange(w, floatLeaves)
		}
		check("float GEMMs only", false)
		for r := 0; r < 4; r++ {
			Int8GEMMRequantInto(ci[0], ai, bi, m, n, k, ep)
			parallelRange(w, i8Leaves)
			MatMulInto(FromSlice(cf[0], m, n), af, bf)
		}
		check("float and int8 GEMMs", true)
	}
}

// TestMatMulSteadyStateAllocs pins the zero-allocation contract of the
// serial blocked kernel: packing scratch and call descriptors are pooled.
func TestMatMulSteadyStateAllocs(t *testing.T) {
	oldPar := MaxParallelism
	MaxParallelism = 1
	defer func() { MaxParallelism = oldPar }()
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 48, 27)
	b := randMat(rng, 27, 640)
	c := New(48, 640)
	forceBlocked(func() {
		MatMulInto(c, a, b) // warm the scratch pool
		if allocs := testing.AllocsPerRun(20, func() { MatMulInto(c, a, b) }); allocs != 0 {
			t.Errorf("MatMulInto steady state: %v allocs/op, want 0", allocs)
		}
	})
}

func TestMatMulShapePanics(t *testing.T) {
	a, b := New(2, 3), New(4, 5)
	for _, fn := range []func(){
		func() { matMul(a, b) },
		func() { MatMulInto(New(2, 5), a, b) },
		func() {
			MatMulRowEpilogueInto(make([]float32, 6), a.Data, make([]float32, 9), RowProduct{M: 2, N: 3, K: 3, Ep: RowEpilogue{Bias: make([]float32, 5)}})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected shape panic")
				}
			}()
			fn()
		}()
	}
}

// sameFloats is firstBitDiff with every NaN equal to every other: which
// payload an operation on two NaNs keeps is the compiler's operand order.
func sameFloats(got, want []float32) int {
	for i, g := range got {
		if math.Float32bits(g) != math.Float32bits(want[i]) && !(g != g && want[i] != want[i]) {
			return i
		}
	}
	return -1
}

// TestRowEpilogueMatchesSeparatePasses is the bitwise contract of the fused
// row tail: a GEMM whose store applies batch norm and the clamp equals the
// bias GEMM followed by a batch-norm pass and an activation pass over C,
// spelled out here independently of BNEval and ReLUClamp. Column 0 of B
// times a one-hot A puts NaN, ±Inf, exactly 0 and exactly Cap into the
// sums; k crosses one and two KC blocks, where the tail must wait for the
// last block; both paths, one and three workers, every micro-kernel.
func TestRowEpilogueMatchesSeparatePasses(t *testing.T) {
	kernels := availableKernels()
	rng := rand.New(rand.NewSource(44))
	const capV = 6
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, capV}
	for _, cfg := range []struct {
		name     string
		bn, relu bool
		cap      float32
	}{{"bn+relu6", true, true, capV}, {"bn+relu", true, true, 0}, {"bn", true, false, 0}, {"relu6", false, true, capV}, {"relu", false, true, 0}} {
		t.Run(cfg.name, func(t *testing.T) {
			check := func(m, n, k int) {
				a, b := randMat(rng, m, k), randMat(rng, k, n)
				// Row 0 of A selects row 0 of B, which holds the specials.
				clear(a.Data[:k])
				a.Data[0] = 1
				for j := 0; j < n; j++ {
					b.Data[j] = specials[j%len(specials)]
				}
				ep := RowEpilogue{Bias: randMat(rng, 1, m).Data, ReLU: cfg.relu, Cap: cfg.cap}
				ep.Bias[0] = 0
				if cfg.bn {
					ep.Gamma, ep.Mean = randMat(rng, 1, m).Data, randMat(rng, 1, m).Data
					ep.Inv, ep.Beta = randMat(rng, 1, m).Data, randMat(rng, 1, m).Data
				}
				for _, kernel := range kernels {
					for _, path := range []struct {
						blocked bool
						workers int
					}{{true, 1}, {true, 3}, {false, 1}} {
						got, want := New(m, n), New(m, n)
						withKernel(t, kernel, func() {
							forcePath(path.blocked, func() {
								withWorkers(path.workers, func() {
									MatMulRowEpilogueInto(got.Data, a.Data, b.Data, RowProduct{M: m, N: n, K: k, Ep: ep})
									MatMulRowEpilogueInto(want.Data, a.Data, b.Data, RowProduct{M: m, N: n, K: k, Ep: RowEpilogue{Bias: ep.Bias}})
								})
							})
						})
						for i := 0; i < m; i++ {
							for j, v := range want.Data[i*n : (i+1)*n] {
								if cfg.bn {
									v = ep.Gamma[i]*(v-ep.Mean[i])*ep.Inv[i] + ep.Beta[i]
								}
								if cfg.relu {
									if v <= 0 {
										v = 0
									} else if cfg.cap > 0 && v >= cfg.cap {
										v = cfg.cap
									}
								}
								want.Data[i*n+j] = v
							}
						}
						if i := sameFloats(got.Data, want.Data); i >= 0 {
							t.Fatalf("%s blocked=%v workers=%d m=%d n=%d k=%d: element %d = %v, separate passes give %v",
								kernel, path.blocked, path.workers, m, n, k, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
			gemmSweep(check)
			check(5, 9, gemmKC+3)
			check(6, 29, 2*gemmKC+3)
		})
	}
	// What no sum that starts at +0 can produce: the clamp turns -0 into +0.
	row := []float32{float32(math.Copysign(0, -1)), -1, 3, 7}
	(&RowEpilogue{ReLU: true, Cap: capV}).finish(row, 0)
	if want := []float32{0, 0, 3, capV}; firstBitDiff(row, want) >= 0 {
		t.Fatalf("clamp of [-0 -1 3 7] = %v, want %v", row, want)
	}
}

// rangeMarker is a parallelRange body bound once, as its callers do: it
// counts how often each index is visited.
type rangeMarker struct{ seen []int32 }

func (r *rangeMarker) mark(lo, hi int) {
	for i := lo; i < hi; i++ {
		atomic.AddInt32(&r.seen[i], 1)
	}
}

// TestParallelRange: every index of [0, n) is visited exactly once for any
// worker count (more workers than indices included), several callers may
// share the pool with GEMMs, and a warm call allocates nothing.
func TestParallelRange(t *testing.T) {
	oldPar := MaxParallelism
	defer func() { MaxParallelism = oldPar }()
	for _, workers := range []int{1, 2, 3, 8} {
		MaxParallelism = workers
		for _, n := range []int{0, 1, 2, 5, 64, 1000} {
			r := &rangeMarker{seen: make([]int32, n)}
			parallelRange(n, r.mark)
			for i, c := range r.seen {
				if c != 1 {
					t.Fatalf("%d workers, n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
	MaxParallelism = 3
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &rangeMarker{seen: make([]int32, 500)}
			a, b, c := New(32, 64), New(64, 256), New(32, 256)
			for round := 0; round < 20; round++ {
				parallelRange(len(r.seen), r.mark)
				MatMulInto(c, a, b)
			}
			for i, n := range r.seen {
				if n != 20 {
					t.Errorf("index %d visited %d times in 20 rounds", i, n)
					return
				}
			}
		}()
	}
	wg.Wait()
	r := &rangeMarker{seen: make([]int32, 1000)}
	body := r.mark
	parallelRange(len(r.seen), body)
	if allocs := testing.AllocsPerRun(20, func() { parallelRange(len(r.seen), body) }); allocs != 0 {
		t.Errorf("warm parallelRange over 3 workers: %v allocs per call, want 0", allocs)
	}
}

// markArg is rangeMarker.mark as a Ranger body: the marker is the argument.
func markArg(r *rangeMarker, lo, hi int) { r.mark(lo, hi) }

// TestRanger: a Ranger call visits every index once, hands each chunk the
// argument of its own call when several share the Ranger at once, and
// allocates nothing once warm although the argument changes from call to
// call.
func TestRanger(t *testing.T) {
	ranger := NewRanger[*rangeMarker]()
	withWorkers(3, func() {
		for _, n := range []int{0, 1, 2, 5, 1000} {
			r := &rangeMarker{seen: make([]int32, n)}
			ranger.Run(n, r, markArg)
			for i, c := range r.seen {
				if c != 1 {
					t.Fatalf("n=%d: index %d visited %d times", n, i, c)
				}
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := &rangeMarker{seen: make([]int32, 500)}
				for round := 0; round < 20; round++ {
					ranger.Run(len(r.seen), r, markArg)
				}
				for i, n := range r.seen {
					if n != 20 {
						t.Errorf("index %d visited %d times in 20 rounds", i, n)
						return
					}
				}
			}()
		}
		wg.Wait()
		a, b := &rangeMarker{seen: make([]int32, 1000)}, &rangeMarker{seen: make([]int32, 1000)}
		ranger.Run(1000, a, markArg)
		if allocs := testing.AllocsPerRun(20, func() {
			ranger.Run(1000, a, markArg)
			ranger.Run(1000, b, markArg)
		}); allocs != 0 {
			t.Errorf("warm Ranger.Run over 3 workers: %v allocs per pair of calls, want 0", allocs)
		}
	})
}

// TestRowProductBandsMatchWhole: a product computed as column bands — each a
// call with BandOf, a dense copy of its columns of B, and its window of C
// through Ldc, all running at once from a parallelRange body, where a call
// that dispatched to the pool could deadlock — equals the one-call product
// bit for bit. The crossover is production's: 2×25×300 is blocked and sums
// k in two blocks, while a band of five columns judged alone would run the
// small-problem kernel, whose bits differ. Every micro-kernel.
func TestRowProductBandsMatchWhole(t *testing.T) {
	eachKernel(t, testRowProductBandsMatchWhole)
}

func testRowProductBandsMatchWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, s := range [][4]int{{2, 25, 300, 5}, {2, 25, 300, 25}, {7, 64, 33, 8}, {5, 9, 3, 2}, {64, 600, 70, 96}} {
		m, n, k, band := s[0], s[1], s[2], s[3]
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		ep := RowEpilogue{Bias: randMat(rng, 1, m).Data, ReLU: true, Cap: 6}
		want, got := New(m, n), New(m, n)
		MatMulRowEpilogueInto(want.Data, a.Data, b.Data, RowProduct{M: m, N: n, K: k, Ep: ep})
		bands := (n + band - 1) / band
		withWorkers(3, func() {
			parallelRange(bands, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					j0, nb := i*band, min(band, n-i*band)
					cols := New(k, nb)
					for p := 0; p < k; p++ {
						copy(cols.Data[p*nb:(p+1)*nb], b.Data[p*n+j0:])
					}
					MatMulRowEpilogueInto(got.Data[j0:j0+(m-1)*n+nb], a.Data, cols.Data,
						RowProduct{M: m, N: nb, K: k, Ldc: n, BandOf: n, Ep: ep})
				}
			})
		})
		if i := firstBitDiff(got.Data, want.Data); i >= 0 {
			t.Errorf("m=%d n=%d k=%d in bands of %d: element %d = %v, the whole product gives %v", m, n, k, band, i, got.Data[i], want.Data[i])
		}
	}
}

// TestInt8LeafCallsMatchDispatched: the int8 engine's lanes multiply from a
// parallelRange body, where a call that dispatched to the pool could
// deadlock. Leaf calls above the parallel threshold, several at once, give
// the bytes of the dispatched call — requantized and dequantized — and a warm
// one allocates nothing, under every kernel. Warm means the free lists hold
// a record for every chunk that can be in flight — parallelRange's task, and
// a task and a panel per lane — so they are filled to that, not left to the
// warm-up's timing: lanes that ran one after another there (GOMAXPROCS 1)
// and overlapped in a measured run (one preempted mid-call, which a loaded
// host makes likely) missed in taskFree and i8ScratchFree, and allocated.
func TestInt8LeafCallsMatchDispatched(t *testing.T) {
	eachKernel(t, testInt8LeafCallsMatchDispatched)
}

func testInt8LeafCallsMatchDispatched(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const m, n, k = 48, 640, 96
	if m*n*k < gemmParallelMACs {
		t.Fatal("shape must sit above the parallel threshold")
	}
	a, b := randI8(rng, m*k), randI8(rng, k*n)
	ep := Int8Epilogue{Bias: make([]int32, m), Mult: make([]float32, m), Lo: 0, Hi: 100}
	for i := range ep.Mult {
		ep.Bias[i], ep.Mult[i] = int32(rng.Intn(2001)-1000), float32(rng.Float64()*0.01)
	}
	want8, wantF := make([]int8, m*n), make([]float32, m*n)
	Int8GEMMRequantInto(want8, a, b, m, n, k, ep)
	Int8GEMMDequantInto(wantF, a, b, m, n, k, ep)
	ep.Leaf = true
	const lanes = 3
	got8, gotF := make([][]int8, lanes), make([][]float32, lanes)
	for i := range got8 {
		got8[i], gotF[i] = make([]int8, m*n), make([]float32, m*n)
	}
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			Int8GEMMRequantInto(got8[i], a, b, m, n, k, ep)
			Int8GEMMDequantInto(gotF[i], a, b, m, n, k, ep)
		}
	}
	withWorkers(lanes, func() {
		parallelRange(lanes, body)
		taskFree.fill(lanes + 1)
		i8ScratchFree.fill(lanes)
		for i := range got8 {
			if !slices.Equal(got8[i], want8) || firstBitDiff(gotF[i], wantF) >= 0 {
				t.Fatalf("lane %d: a leaf call differs from the dispatched one", i)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { parallelRange(lanes, body) }); allocs != 0 {
			t.Errorf("warm leaf calls from %d lanes: %v allocs, want 0", lanes, allocs)
		}
	})
}
