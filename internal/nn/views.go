package nn

import "skynet/internal/tensor"

// viewInto2 repoints a cached rank-2 view tensor at data, creating it on
// first use (or when the shape changed). Layers use this to slice one image
// out of a batch without allocating a header per call; the returned view
// aliases data and is only valid until the next viewInto2 on the same cache
// slot. The arity is fixed (rather than variadic) so the shape slice is only
// materialized on the miss path — a variadic signature would allocate the
// []int argument on every call, even on cache hits.
//
//skynet:hotpath
func viewInto2(cached *tensor.Tensor, data []float32, d0, d1 int) *tensor.Tensor {
	if cached != nil && cached.Rank() == 2 &&
		cached.Dim(0) == d0 && cached.Dim(1) == d1 {
		cached.Data = data
		return cached
	}
	return tensor.FromSlice(data, d0, d1)
}
