package tensor

import "sync"

// FreeList recycles one kind of buffer or record (GEMM panels and call
// records here, scratch and request records elsewhere) so that a warm call
// allocates none: a mutex-guarded stack of at most MaxPooled, refilled by
// Alloc on a miss. Not sync.Pool: under -race that drops a share of Puts,
// which breaks the zero-allocation tests. Put x back only once nothing else
// can reach it.
type FreeList[T any] struct {
	Alloc func() *T // makes a record on a miss

	mu    sync.Mutex
	n     int
	items [MaxPooled]*T
}

// MaxPooled is how many records a FreeList keeps; a burst beyond it is
// memory the collector gets back.
const MaxPooled = 64

// Get pops a recycled record, or makes one.
//
//skynet:hotpath
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	if l.n == 0 {
		l.mu.Unlock()
		return l.Alloc()
	}
	l.n--
	x := l.items[l.n]
	l.items[l.n] = nil
	l.mu.Unlock()
	return x
}

// Put recycles x, unless the list is full.
//
//skynet:hotpath
func (l *FreeList[T]) Put(x *T) {
	l.mu.Lock()
	if l.n < len(l.items) {
		l.items[l.n] = x
		l.n++
	}
	l.mu.Unlock()
}

// Len reports how many records the list holds.
func (l *FreeList[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}
