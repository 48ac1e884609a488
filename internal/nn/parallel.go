package nn

import (
	"runtime"
	"sync"
)

// MaxParallelism caps the worker count used by data-parallel layer loops;
// 0 (default) uses GOMAXPROCS. Exposed so benchmarks and tests can pin it.
// The loops that call no dispatching GEMM — the depth-wise planes of either
// walk, the inference plan's lanes, the bands of a Bundle step a lone lane
// splits — run on the GEMM worker pool instead (tensor.Ranger), which
// tensor.MaxParallelism caps: the planes go by that alone, the lanes and the
// bands by the smaller of the two.
var MaxParallelism = 0

// workersFor picks the worker count for an n-iteration parallel loop.
//
//skynet:hotpath
func workersFor(n int) int {
	w := MaxParallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelFor runs fn(arg, worker, i) for i in [0,n), splitting the range
// into workersFor(n) contiguous chunks: 0 ≤ worker < workersFor(n), and all
// indices of one chunk share a worker. Worker 0 is the calling goroutine;
// every further chunk gets a goroutine of its own for the duration of the
// call (never a pooled one: fn may itself call a GEMM, and the GEMM pool's
// workers must not block on their own pool). Callers use the worker index to
// address per-worker scratch; two invocations with the same worker index
// never run concurrently, and fn must not share other mutable state across
// indices. Chunk assignment is deterministic for a fixed worker count.
//
// arg carries the operands of the call to every invocation, so fn can be a
// method expression — a static function value — and neither a closure built
// per call nor a layer field holds them. Beyond one worker each extra chunk
// costs one goroutine whose closure captures (arg, worker, lo, hi): a handful
// of small allocations per *batched layer call*, amortized over the chunk's
// work, never per element.
//
//skynet:hotpath
func parallelFor[T any](n int, arg T, fn func(arg T, worker, i int)) {
	w := workersFor(n)
	if w == 1 {
		// Returning here keeps the one-worker call allocation-free: the
		// WaitGroup below is captured by the goroutine closures, so it lives
		// on the heap from its declaration on.
		for i := 0; i < n; i++ {
			fn(arg, 0, i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for worker, lo := 1, chunk; lo < n; worker, lo = worker+1, lo+chunk {
		wg.Add(1)
		//skynet:nolint hotalloc -- one goroutine closure per chunk per batched call, amortized over the chunk's work (see the doc comment)
		go func(arg T, worker, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(arg, worker, i)
			}
		}(arg, worker, lo, min(lo+chunk, n))
	}
	for i := 0; i < chunk; i++ {
		fn(arg, 0, i)
	}
	wg.Wait()
}
