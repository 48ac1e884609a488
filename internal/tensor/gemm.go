package tensor

import (
	"math"
	"runtime"
	"sync"
)

// This file implements the blocked, packed GEMM kernel that backs every
// exported MatMul* variant. The organization is the classic three-level
// blocking scheme (Goto/BLIS):
//
//	for jc in blocks of NC over n:            // C/B column block
//	  for pc in blocks of KC over k:          // shared inner dimension
//	    pack B[pc:pc+KC, jc:jc+NC] into bp    // NR-column panels, padded
//	    for ic in blocks of MC over m:        // A/C row block
//	      pack A[ic:ic+MC, pc:pc+KC] into ap  // MR-row panels, padded
//	      micro-kernel over MR×NR tiles of C
//
// Packing rewrites the operands into the exact streaming order the
// micro-kernel consumes (panel-major, fully dense, zero-padded to the tile
// size), which removes strided access from the inner loop and makes the
// transpose variants cost the same as the plain ones. The micro-kernel keeps
// an MR×NR accumulator block in registers and performs MR·NR multiply-adds
// per iteration of the packed k loop.
//
// Parallelism splits the n dimension (columns of B and C) into contiguous
// chunks, one per worker; each chunk runs the full blocked loop nest on
// packing scratch it holds until it ends, so chunks share nothing but
// read-only inputs. Because the k-summation order of every C element is
// identical regardless of the split, results are bitwise-independent of the
// worker count.
//
// The micro-kernel itself is dispatched through the gemmMicro function
// variable (kernel.go): AVX-512 or AVX2 assembly where the CPU has it, the
// pure-Go reference below otherwise. NR is 16, so one tile row is one ZMM
// register or two YMM registers of float32 lanes; every implementation
// consumes the same packed panel layout and the same strict k-order per
// element, so swapping them never changes a single output bit.
const (
	gemmMR = 4   // micro-tile rows (accumulator block height)
	gemmNR = 16  // micro-tile cols (one ZMM, two YMM vectors per tile row)
	gemmKC = 256 // k-dimension cache block (packed panels stay L1-resident)
	gemmMC = 64  // m-dimension cache block (A block, L2)
	gemmNC = 512 // n-dimension cache block (B block, bounds scratch size)
)

// gemmMinBlockedMACs is the problem size (m·n·k multiply-accumulates) below
// which a call of either element type takes its small-problem kernel
// (runNaive): for tiny operands the packing overhead outweighs the blocking
// win. It is a variable so tests can force either path.
var gemmMinBlockedMACs = 1 << 13

// gemmMinBlockedK is the inner-dimension size below which the naive kernels
// win regardless of total problem size: the micro-kernel's advantage comes
// from long packed dot products (B-panel reuse across MR rows), and with a
// short k the per-call packing plus tile load/store overhead is never
// amortized. The crossover depends on the dispatched micro-kernel, so
// SetKernel keeps this in sync: the pure-Go kernel needs k ≈ 48 to beat the
// naive loops (SkyNet's scaled pointwise convs, k ≤ 48, run ~1.2–1.5×
// faster naive), while the AVX2 kernel wins from k ≈ 4 up (measured ~1.4×
// at k=4, ~4× at k=27). A variable so tests can force either path.
var gemmMinBlockedK = gemmMinBlockedKPure

const (
	gemmMinBlockedKPure = 48
	gemmMinBlockedKAsm  = 4
)

// useNaive decides whether a float32 call takes the small-problem kernel
// instead of the blocked path. That kernel streams whichever operand is
// contiguous along its inner loop; with both operands transposed neither
// is, so that layout (no exported entry point produces it) always packs.
// A column band of a wider product (bandOf) is judged by that product's
// size: the two kernels differ in bits once k spans two blocks.
//
//skynet:hotpath
func (g *gemmCall) useNaive() bool {
	n := g.n
	if g.bandOf > 0 {
		n = g.bandOf
	}
	return !(g.aTrans && g.bTrans) && (g.m*n*g.k < gemmMinBlockedMACs || g.k < gemmMinBlockedK)
}

// gemmParallelMACs is the problem size below which a GEMM of either
// element type runs on the calling goroutine only.
var gemmParallelMACs = 1 << 18

// MaxParallelism caps the worker count used by parallel GEMM calls; 0 (the
// default) uses GOMAXPROCS. Exposed so benchmarks and tests can pin it.
// Results do not depend on the setting (see determinism note above).
var MaxParallelism = 0

// gemmCall fully describes one C (+)= op(A)·op(B) (+ bias) invocation on raw
// row-major slices. lda/ldb are the row strides of a and b as stored (i.e.
// of the untransposed layouts).
type gemmCall struct {
	a, b, c        []float32
	m, n, k        int
	lda, ldb, ldc  int
	aTrans, bTrans bool
	bandOf         int         // RowProduct.BandOf: > 0 makes the call a leaf, judged as n = bandOf
	ap             []float32   // RowProduct.Packed: A already in its panels, or nil
	acc            bool        // accumulate into C instead of overwriting
	row            RowEpilogue // per-row bias and tail; ignored on accumulating calls
}

// RowEpilogue is what a convolution GEMM does to row i of C — one output
// channel — beyond the product: Bias[i] is added on the overwrite pass, and
// once an element holds its complete k sum the store applies batch norm's
// eval expression with row i's statistics and then the rectifier clamp. The
// tail runs after the last k block on the value just written to C, so each
// element sees exactly the float operations, in the order, of a bias GEMM
// followed by separate batch-norm and activation passes: fusing them saves
// the passes over memory and changes no bit.
type RowEpilogue struct {
	Bias []float32 // len m; nil for none
	// Gamma, Mean, Inv and Beta (each len m) are BNEval's per-row operands;
	// a nil Gamma skips batch norm.
	Gamma, Mean, Inv, Beta []float32
	// ReLU selects ReLUClamp with Cap.
	ReLU bool
	Cap  float32
}

// BNEval is batch norm's eval-mode expression for one element: inv is
// 1/sqrt(var+eps) of the element's channel.
//
//skynet:hotpath
func BNEval(x, gamma, mean, inv, beta float32) float32 {
	return gamma*(x-mean)*inv + beta
}

// ReLUClamp is the rectifier max(0, v), additionally clipped to cap when
// cap > 0. NaN passes through and -0 becomes +0, as the built-in min and max
// define them. Those compile to branch-free code: on activations, half of
// which are negative, a compare-and-branch per element mispredicts its way
// to a quarter of the speed.
//
//skynet:hotpath
func ReLUClamp(v, cap float32) float32 {
	hi := float32(math.Inf(1))
	if cap > 0 {
		hi = cap
	}
	return min(max(v, 0), hi)
}

// mode is the tail as rowTail's mode bits: 0 when finished elements need no
// more than the bias.
//
//skynet:hotpath
func (e *RowEpilogue) mode() int {
	m := 0
	if e.Gamma != nil {
		m |= tailBN
	}
	if e.ReLU {
		m |= tailReLU
	}
	return m
}

// finish applies the tail to finished elements of row i.
//
//skynet:hotpath
func (e *RowEpilogue) finish(crow []float32, i int) {
	var g, mean, inv, bt float32
	if e.Gamma != nil {
		g, mean, inv, bt = e.Gamma[i], e.Mean[i], e.Inv[i], e.Beta[i]
	}
	rowTail(crow, crow, e.mode(), g, mean, inv, bt, e.Cap)
}

// gemmScratch holds the packing buffers of one chunk in flight. Buffers are
// allocated once at the maximum block size and go back to gemmScratchFree
// when the chunk ends, so steady-state GEMM calls allocate nothing.
type gemmScratch struct {
	ap []float32 // packed A block: MC×KC, MR-row panels
	bp []float32 // packed B block: KC×NC, NR-column panels

	// tile is the micro-kernel accumulator block. It lives in the scratch
	// rather than on macroKernel's stack because its address is passed
	// through the gemmMicro function variable: escape analysis cannot see
	// through an indirect call, so a stack tile would heap-allocate on
	// every macro-kernel invocation.
	tile [gemmMR * gemmNR]float32
}

func newGemmScratch() *gemmScratch {
	return &gemmScratch{
		ap: make([]float32, gemmMC*gemmKC),
		bp: make([]float32, gemmKC*gemmNC),
	}
}

// gemmTask is one in-flight piece of work the pool splits: a blocked GEMM of
// either element type — the live call descriptor — or a parallelRange body,
// with the completion group the pool workers signal. A task holds no scratch;
// tasks and the packing panels of each element type come from free lists, so
// a warm call allocates nothing and a float-only process builds no int8
// panel (nor the reverse).
type gemmTask struct {
	f32  gemmCall
	i8   i8gemmCall
	isI8 bool             // which descriptor is live
	leaf func(lo, hi int) // parallelRange's body; nil on a GEMM task
	wg   sync.WaitGroup
}

// Every chunk of a blocked GEMM — the caller's, a pool job, a leaf call —
// takes its packing scratch from the list of its element type and puts it
// back when it ends, so a list holds as many panels as chunks ever ran at once.
var (
	taskFree        = FreeList[gemmTask]{Alloc: func() *gemmTask { return &gemmTask{} }}
	gemmScratchFree = FreeList[gemmScratch]{Alloc: newGemmScratch}
	i8ScratchFree   = FreeList[i8Scratch]{Alloc: newI8Scratch}
)

// run executes columns [j0, j1) of the task's live call on packing scratch
// it holds for that long, or that range of its leaf body.
//
//skynet:hotpath
func (t *gemmTask) run(j0, j1 int) {
	switch {
	case t.leaf != nil:
		t.leaf(j0, j1)
	case t.isI8:
		s := i8ScratchFree.Get()
		t.i8.run(j0, j1, s)
		i8ScratchFree.Put(s)
	default:
		s := gemmScratchFree.Get()
		t.f32.run(j0, j1, s)
		gemmScratchFree.Put(s)
	}
}

// gemmJob is one column chunk of a task, handed to a pool worker.
type gemmJob struct {
	t      *gemmTask
	j0, j1 int
}

// The worker pool is shared by the float32 and int8 GEMMs. Invariant: pool
// workers never dispatch — a job is a leaf that packs and multiplies its
// column chunk and signals the task. Code that calls a dispatching GEMM must
// therefore not run on this pool: a worker blocked in dispatch waits on jobs
// only other workers can take, and once every worker is such an outer chunk
// nothing drains the queue. A parallelRange body — a lane of a batch, of the
// inference plan or of a layer's own loop — makes only leaf calls:
// RowProduct.BandOf, the leaf argument of the backward products,
// Int8Epilogue.Leaf. These workers are the only goroutines the kernels start.
var (
	gemmWorkersOnce sync.Once
	gemmJobs        chan gemmJob
)

// startGemmWorkers lazily spins up the persistent worker pool. A worker
// holds nothing between jobs — a job's chunk takes its packing scratch from
// a free list and returns it before the task is signalled — so a parked
// worker costs only its stack. The pool is sized for the machine but never
// below 8, so tests that raise MaxParallelism on small machines still
// exercise real concurrency.
func startGemmWorkers() {
	n := runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	gemmJobs = make(chan gemmJob, 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for j := range gemmJobs {
				j.t.run(j.j0, j.j1)
				j.t.wg.Done()
			}
		}()
	}
}

// gemmWorkerCount decides how many column chunks to split a call into, for
// either element type: chunks are whole tiles, gemmNR = i8NR columns.
//
//skynet:hotpath
func gemmWorkerCount(m, n, k int) int {
	w := RangeWorkers(math.MaxInt)
	if w <= 1 || m*n*k < gemmParallelMACs {
		return 1
	}
	if byN := n / gemmNR; w > byN {
		w = byN
	}
	if w < 1 {
		w = 1
	}
	return w
}

// dispatch runs the task's live m×n×k call, splitting its columns across
// the worker pool when profitable. The caller always executes the first
// chunk itself so progress never depends on pool capacity.
//
//skynet:hotpath
func (t *gemmTask) dispatch(m, n, k int) {
	chunk := n
	if w := gemmWorkerCount(m, n, k); w > 1 {
		chunk = (n + w - 1) / w
		chunk = (chunk + gemmNR - 1) / gemmNR * gemmNR
	}
	t.split(n, chunk)
}

// split runs [0, n) of the task in chunks: the first on the calling
// goroutine, the others on the pool.
//
//skynet:hotpath
func (t *gemmTask) split(n, chunk int) {
	if chunk < n {
		gemmWorkersOnce.Do(startGemmWorkers)
		t.wg.Add((n - 1) / chunk)
		for j0 := chunk; j0 < n; j0 += chunk {
			gemmJobs <- gemmJob{t: t, j0: j0, j1: min(j0+chunk, n)}
		}
	}
	t.run(0, min(chunk, n))
	t.wg.Wait()
}

// RangeWorkers returns how many chunks parallelRange cuts [0, n) into, which
// is how many goroutines run its body at once: MaxParallelism, else
// GOMAXPROCS, and never more than n.
//
//skynet:hotpath
func RangeWorkers(n int) int {
	w := MaxParallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, n)
}

// parallelRange runs fn over [0, n) cut into one contiguous chunk per worker
// (MaxParallelism, else GOMAXPROCS), the first on the calling goroutine and
// the rest on the GEMM worker pool, and returns when all are done. fn must
// be a leaf in the pool's sense — it may call neither a GEMM nor
// parallelRange — and chunks must not share mutable state. A warm call
// allocates nothing when fn is a func value made once, not a closure built
// per call; Ranger, which other packages call, sees to that.
//
//skynet:hotpath
func parallelRange(n int, fn func(lo, hi int)) {
	w := RangeWorkers(n)
	if w <= 1 {
		fn(0, n)
		return
	}
	t := taskFree.Get()
	t.leaf = fn
	t.split(n, (n+w-1)/w)
	t.leaf = nil
	taskFree.Put(t)
}

// Ranger is parallelRange for a body that takes the operands of the call as
// an argument: fn can then be a method expression — a static function value —
// and neither a closure built per call nor a field of the caller holds the
// operands, which travel in a pooled call record. One Ranger serves any number
// of calls at once; make it once, as a package-level variable.
type Ranger[T any] struct{ free FreeList[rangeCall[T]] }

// rangeCall is one Ranger call in flight.
type rangeCall[T any] struct {
	arg  T
	fn   func(arg T, lo, hi int)
	body func(lo, hi int) // run, bound when the record is made
}

// NewRanger returns a Ranger for bodies that take a T.
func NewRanger[T any]() *Ranger[T] {
	return &Ranger[T]{free: FreeList[rangeCall[T]]{Alloc: func() *rangeCall[T] {
		c := &rangeCall[T]{}
		c.body = c.run
		return c
	}}}
}

//skynet:hotpath
func (c *rangeCall[T]) run(lo, hi int) { c.fn(c.arg, lo, hi) }

// Run is parallelRange(n, func(lo, hi int) { fn(arg, lo, hi) }), and like it
// allocates nothing once warm.
//
//skynet:hotpath
func (r *Ranger[T]) Run(n int, arg T, fn func(arg T, lo, hi int)) {
	if RangeWorkers(n) <= 1 {
		fn(arg, 0, n)
		return
	}
	c := r.free.Get()
	c.arg, c.fn = arg, fn
	parallelRange(n, c.body)
	var none T
	c.arg, c.fn = none, nil // a parked record must not keep the caller's operands alive
	r.free.Put(c)
}

// gemmExec runs a float32 call: tiny problems on the small-problem kernel,
// everything else through the blocked kernel and the shared dispatch — or,
// for a band call, as one chunk on this goroutine, so that a pool worker
// running it never dispatches.
//
//skynet:hotpath
func gemmExec(c gemmCall) {
	if c.useNaive() {
		c.runNaive()
		return
	}
	t := taskFree.Get()
	t.f32, t.isI8 = c, false
	if c.bandOf > 0 {
		t.run(0, c.n)
	} else {
		t.dispatch(c.m, c.n, c.k)
	}
	t.f32 = gemmCall{} // a parked task must not keep the caller's operands alive
	taskFree.Put(t)
}

// runNaive is the float32 small-problem kernel: no packing, one pass over
// the operands as stored, one row of C at a time. Without bTrans it walks
// i/p/j, so the inner loop streams a contiguous row of B into the row of C
// (the production path, under purego, for SkyNet's k ≤ 48 point-wise
// convs); with bTrans the rows of A and B are both contiguous and each
// element is one dot product (useNaive keeps aTrans away from that loop).
// Either way every C element
// sums its products in ascending k, and the bias is added after the k sum,
// on overwriting calls only, and the row tail after the bias — as in the
// blocked kernel.
//
//skynet:hotpath
func (g *gemmCall) runNaive() {
	ai, ap := g.lda, 1 // strides of op(A) along i and along p
	if g.aTrans {
		ai, ap = 1, g.lda
	}
	for i := 0; i < g.m; i++ {
		crow := g.c[i*g.ldc : i*g.ldc+g.n]
		if g.bTrans {
			arow := g.a[i*g.lda : i*g.lda+g.k]
			for j := range crow {
				brow := g.b[j*g.ldb : j*g.ldb+g.k]
				var s float32
				for p, av := range arow {
					s += av * brow[p]
				}
				if g.acc {
					crow[j] += s
				} else {
					crow[j] = s
				}
			}
		} else {
			if !g.acc {
				clear(crow)
			}
			for p := 0; p < g.k; p++ {
				av := g.a[i*ai+p*ap]
				if av == 0 {
					continue
				}
				axpyRow(crow, g.b[p*g.ldb:p*g.ldb+len(crow)], av)
			}
		}
		if g.acc {
			continue
		}
		if g.row.Bias != nil {
			rb := g.row.Bias[i]
			for j := range crow {
				crow[j] += rb
			}
		}
		g.row.finish(crow, i)
	}
}

// run executes the blocked loop nest over columns [j0, j1) of C.
//
//skynet:hotpath
func (g *gemmCall) run(j0, j1 int, s *gemmScratch) {
	for jc := j0; jc < j1; jc += gemmNC {
		nc := min(gemmNC, j1-jc)
		for pc := 0; pc < g.k; pc += gemmKC {
			kc := min(gemmKC, g.k-pc)
			g.packB(s.bp, pc, kc, jc, nc)
			overwrite := pc == 0 && !g.acc
			finish := pc+kc == g.k && !g.acc && g.row.mode() != 0
			for ic := 0; ic < g.m; ic += gemmMC {
				mc, ap := min(gemmMC, g.m-ic), s.ap
				if g.ap != nil {
					ap = g.ap[PackedLen(g.m, pc)+ic*kc:]
				} else {
					g.packA(ap, ic, mc, pc, kc)
				}
				g.macroKernel(s, ap, ic, mc, jc, nc, kc, overwrite, finish)
			}
		}
	}
}

// macroKernel sweeps the MR×NR micro-tiles of the current (ic, jc) block.
//
//skynet:hotpath
func (g *gemmCall) macroKernel(s *gemmScratch, aps []float32, ic, mc, jc, nc, kc int, overwrite, finish bool) {
	tile := &s.tile
	for jr := 0; jr < nc; jr += gemmNR {
		nr := min(gemmNR, nc-jr)
		bp := s.bp[(jr/gemmNR)*kc*gemmNR:]
		for ir := 0; ir < mc; ir += gemmMR {
			mr := min(gemmMR, mc-ir)
			ap := aps[(ir/gemmMR)*kc*gemmMR:]
			if f := gemmTile; f != nil && mr == gemmMR && nr == gemmNR { // the tile never in memory
				c, bias, gamma, mean, inv, beta, mode := g.tileOps(ic+ir, jc+jr, overwrite, finish)
				f(kc, &ap[0], &bp[0], c, g.ldc, bias, gamma, mean, inv, beta, clampHi(g.row.Cap), mode)
				continue
			}
			gemmMicro(kc, ap, bp, tile)
			g.storeTile(tile, ic+ir, jc+jr, mr, nr, overwrite, finish)
		}
	}
}

// microKernelRef computes one MR×NR tile product over the packed panels:
// ap holds kc rows of MR A-values, bp holds kc rows of NR B-values. It is
// the portable implementation behind the gemmMicro dispatch seam and the
// bitwise oracle for the assembly kernels: per k step each accumulator
// performs one multiply and one add, each individually rounded, exactly as
// the assembly's VMULPS/VADDPS pair does — and in the same strict k order.
// Do not restructure the arithmetic into a*b+c forms a compiler could fuse.
// It runs as two 8-column halves, so that its 32 accumulators fit arm64's
// registers.
//
//skynet:hotpath
func microKernelRef(kc int, ap, bp []float32, tile *[gemmMR * gemmNR]float32) {
	for h := 0; h < gemmNR; h += 8 {
		var c00, c01, c02, c03, c04, c05, c06, c07 float32
		var c10, c11, c12, c13, c14, c15, c16, c17 float32
		var c20, c21, c22, c23, c24, c25, c26, c27 float32
		var c30, c31, c32, c33, c34, c35, c36, c37 float32
		for p := 0; p < kc; p++ {
			a := ap[p*gemmMR : p*gemmMR+gemmMR]
			b := bp[p*gemmNR+h : p*gemmNR+h+8]
			a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
			b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
			b4, b5, b6, b7 := b[4], b[5], b[6], b[7]
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
			c04 += a0 * b4
			c05 += a0 * b5
			c06 += a0 * b6
			c07 += a0 * b7
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
			c14 += a1 * b4
			c15 += a1 * b5
			c16 += a1 * b6
			c17 += a1 * b7
			c20 += a2 * b0
			c21 += a2 * b1
			c22 += a2 * b2
			c23 += a2 * b3
			c24 += a2 * b4
			c25 += a2 * b5
			c26 += a2 * b6
			c27 += a2 * b7
			c30 += a3 * b0
			c31 += a3 * b1
			c32 += a3 * b2
			c33 += a3 * b3
			c34 += a3 * b4
			c35 += a3 * b5
			c36 += a3 * b6
			c37 += a3 * b7
		}
		t := tile[h:]
		t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7] = c00, c01, c02, c03, c04, c05, c06, c07
		t[16], t[17], t[18], t[19], t[20], t[21], t[22], t[23] = c10, c11, c12, c13, c14, c15, c16, c17
		t[32], t[33], t[34], t[35], t[36], t[37], t[38], t[39] = c20, c21, c22, c23, c24, c25, c26, c27
		t[48], t[49], t[50], t[51], t[52], t[53], t[54], t[55] = c30, c31, c32, c33, c34, c35, c36, c37
	}
}

// storeTile writes a micro-tile into C, clipping the zero-padded edge rows
// and columns. On the overwrite pass (first k block, non-accumulating call)
// it also applies the fused bias epilogue; on the last k block of a call
// with a row tail (finish) it then applies the tail to the completed sums.
//
//skynet:hotpath
func (g *gemmCall) storeTile(tile *[gemmMR * gemmNR]float32, i0, j0, mr, nr int, overwrite, finish bool) {
	if f := rows.storeTile; f != nil && mr == gemmMR && nr == gemmNR {
		// One call per whole tile, not one per tile row: at SkyNet's k a tile
		// is a hundred nanoseconds of multiplying, and four calls with this
		// loop around them cost a quarter of that again.
		c, bias, gamma, mean, inv, beta, mode := g.tileOps(i0, j0, overwrite, finish)
		f(c, g.ldc, tile, bias, gamma, mean, inv, beta, clampHi(g.row.Cap), mode)
		return
	}
	for r := 0; r < mr; r++ {
		crow := g.c[(i0+r)*g.ldc+j0 : (i0+r)*g.ldc+j0+nr]
		trow := tile[r*gemmNR : r*gemmNR+nr]
		if !overwrite {
			for q, v := range trow {
				crow[q] += v
			}
		} else {
			var rb float32
			if g.row.Bias != nil {
				rb = g.row.Bias[i0+r]
			}
			for q, v := range trow {
				crow[q] = v + rb
			}
		}
		if finish {
			g.row.finish(crow, i0+r)
		}
	}
}

// tileOps is what a whole-tile store at (i0, j0) takes beyond the tile: where
// in C, row i0's bias and statistics, each nil when unused, and the mode.
//
//skynet:hotpath
func (g *gemmCall) tileOps(i0, j0 int, overwrite, finish bool) (c, bias, gamma, mean, inv, beta *float32, mode int) {
	_ = g.c[(i0+gemmMR-1)*g.ldc+j0+gemmNR-1]
	e, mode := &g.row, tailAcc
	if overwrite {
		mode = 0
		if e.Bias != nil {
			_ = e.Bias[i0+gemmMR-1]
			bias = &e.Bias[i0]
		}
	}
	if finish {
		mode |= e.mode()
		if e.Gamma != nil {
			_, _, _, _ = e.Gamma[i0+gemmMR-1], e.Mean[i0+gemmMR-1], e.Inv[i0+gemmMR-1], e.Beta[i0+gemmMR-1]
			gamma, mean, inv, beta = &e.Gamma[i0], &e.Mean[i0], &e.Inv[i0], &e.Beta[i0]
		}
	}
	return &g.c[i0*g.ldc+j0], bias, gamma, mean, inv, beta, mode
}

// PackedLen is the length of the panels PackA makes of an [m,k] matrix.
//
//skynet:hotpath
func PackedLen(m, k int) int { return (m + gemmMR - 1) / gemmMR * gemmMR * k }

// PackA packs the [m,k] matrix a into dst, PackedLen(m, k) long: the panels
// the blocked kernel would pack of it, which a product over a constant a takes
// as RowProduct.Packed instead of packing them per column block, same bits.
//
//skynet:hotpath
func PackA(dst, a []float32, m, k int) {
	g := gemmCall{a: a, m: m, k: k, lda: k}
	for pc := 0; pc < k; pc += gemmKC {
		g.packA(dst[PackedLen(m, pc):], 0, m, pc, min(gemmKC, k-pc))
	}
}

// packA copies A[ic:ic+mc, pc:pc+kc] into MR-row panels: panel ir/MR holds
// kc groups of MR consecutive row values, zero-padded past mc. The packed
// layout is exactly the order the micro-kernel reads.
//
//skynet:hotpath
func (g *gemmCall) packA(dst []float32, ic, mc, pc, kc int) {
	mcp := (mc + gemmMR - 1) / gemmMR * gemmMR
	if g.aTrans {
		// A is stored [k, m]: A(i, p) = a[p*lda + i].
		for ir := 0; ir < mcp; ir += gemmMR {
			di := (ir / gemmMR) * kc * gemmMR
			lim := mc - ir
			if lim > gemmMR {
				lim = gemmMR
			}
			for p := 0; p < kc; p++ {
				src := g.a[(pc+p)*g.lda+ic+ir:]
				for r := 0; r < gemmMR; r++ {
					if r < lim {
						dst[di] = src[r]
					} else {
						dst[di] = 0
					}
					di++
				}
			}
		}
		return
	}
	// A is stored [m, k]: A(i, p) = a[i*lda + p]; copy row-by-row so reads
	// stream.
	for ir := 0; ir < mcp; ir += gemmMR {
		base := (ir / gemmMR) * kc * gemmMR
		for r := 0; r < gemmMR; r++ {
			if ir+r < mc {
				arow := g.a[(ic+ir+r)*g.lda+pc:]
				for p := 0; p < kc; p++ {
					dst[base+p*gemmMR+r] = arow[p]
				}
			} else {
				for p := 0; p < kc; p++ {
					dst[base+p*gemmMR+r] = 0
				}
			}
		}
	}
}

// packB copies B[pc:pc+kc, jc:jc+nc] into NR-column panels: panel jr/NR
// holds kc groups of NR consecutive column values, zero-padded past nc.
//
//skynet:hotpath
func (g *gemmCall) packB(dst []float32, pc, kc, jc, nc int) {
	ncp := (nc + gemmNR - 1) / gemmNR * gemmNR
	if g.bTrans {
		// B is stored [n, k]: B(p, j) = b[j*ldb + p]; copy column-by-column
		// so reads stream over b rows.
		for jr := 0; jr < ncp; jr += gemmNR {
			base := (jr / gemmNR) * kc * gemmNR
			for q := 0; q < gemmNR; q++ {
				if jr+q < nc {
					brow := g.b[(jc+jr+q)*g.ldb+pc:]
					for p := 0; p < kc; p++ {
						dst[base+p*gemmNR+q] = brow[p]
					}
				} else {
					for p := 0; p < kc; p++ {
						dst[base+p*gemmNR+q] = 0
					}
				}
			}
		}
		return
	}
	// B is stored [k, n]: rows are contiguous, copy NR-wide strips.
	for jr := 0; jr < ncp; jr += gemmNR {
		di := (jr / gemmNR) * kc * gemmNR
		lim := nc - jr
		if lim > gemmNR {
			lim = gemmNR
		}
		for p := 0; p < kc; p++ {
			src := g.b[(pc+p)*g.ldb+jc+jr:]
			copy(dst[di:di+lim], src[:lim])
			for q := lim; q < gemmNR; q++ {
				dst[di+q] = 0
			}
			di += gemmNR
		}
	}
}
