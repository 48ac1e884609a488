package nn

import (
	"runtime"
	"sync"
)

// MaxParallelism caps the worker count used by data-parallel layer loops;
// 0 (default) uses GOMAXPROCS. Exposed so benchmarks and tests can pin it.
// The depth-wise forward's plane loop calls no GEMM, so it runs on the GEMM
// worker pool instead (tensor.ParallelRange) and tensor.MaxParallelism caps
// it. The plan's Bundle step cuts its rows for this many workers and runs
// them on that pool too, so the smaller of the two caps it.
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

// parallelForWorkers runs fn(worker, i) for i in [0,n), splitting the range
// into workersFor(n) contiguous chunks: 0 ≤ worker < workersFor(n), and all
// indices of one chunk share a worker. Worker 0 is the calling goroutine;
// every further chunk gets a goroutine of its own for the duration of the
// call (never a pooled one: fn may itself call a GEMM, and the GEMM pool's
// workers must not block on their own pool). Callers use the worker index to
// address per-worker scratch; two invocations with the same worker index
// never run concurrently, and fn must not share other mutable state across
// indices. Chunk assignment is deterministic for a fixed worker count.
//
// Beyond one worker each extra chunk costs one goroutine whose closure
// captures (worker, lo, hi): a handful of small allocations per *batched
// layer call*, amortized over the chunk's work, never per element.
//
//skynet:hotpath
func parallelForWorkers(n int, fn func(worker, i int)) {
	w := workersFor(n)
	if w == 1 {
		// Returning here keeps the one-worker call allocation-free: the
		// WaitGroup below is captured by the goroutine closures, so it lives
		// on the heap from its declaration on.
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for worker, lo := 1, chunk; lo < n; worker, lo = worker+1, lo+chunk {
		wg.Add(1)
		//skynet:nolint hotalloc -- one goroutine closure per chunk per batched call, amortized over the chunk's work (see the doc comment)
		go func(worker, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(worker, i)
			}
		}(worker, lo, min(lo+chunk, n))
	}
	for i := 0; i < chunk; i++ {
		fn(0, i)
	}
	wg.Wait()
}
