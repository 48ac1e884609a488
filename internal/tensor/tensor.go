// Package tensor provides dense float32 tensors in row-major (NCHW) layout
// together with the linear-algebra and image-lowering primitives needed by
// the neural-network layers in internal/nn: matrix multiplication, im2col /
// col2im, elementwise arithmetic and reductions.
//
// The package is deliberately small and allocation-transparent: a Tensor is
// one header (its shape inside it) plus a flat []float32, and every
// operation documents whether it allocates or works in place. All operations
// are deterministic so that experiments are reproducible from a seed: the
// blocked GEMM (gemm.go) may fan work out across a worker pool, but it splits
// only along the output columns, so every output element sees the identical
// k-summation order regardless of worker count and results are bitwise
// reproducible. All other operations are single-goroutine.
package tensor

import (
	"fmt"
	"slices"
)

// Tensor is a dense row-major float32 tensor: one header and its data. Up to
// rank 4 the shape lives in the header (shape is dims capped at its length,
// so an append to Shape() never writes into it); a higher rank keeps its own
// slice. Use a Tensor by pointer: a copied header's shape would still point
// at the original's dims. The zero value is an empty tensor; use New or
// FromSlice to construct usable values.
type Tensor struct {
	shape []int
	dims  [4]int
	Data  []float32
}

// New returns a zero-filled tensor with the given shape. All dimensions
// must be positive.
//
//skynet:nolint hotcall -- allocating constructor by contract (header and data, two objects); hot callers reach it only on cold/shape-change paths or for the one caller-owned output of a layer call
func New(shape ...int) *Tensor { return FromSlice(make([]float32, checkShape(shape)), shape...) }

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
//
//skynet:nolint hotcall -- allocating constructor by contract: one header per view, shape inside it up to rank 4, no data copy
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), slices.Clone(shape), n))
	}
	//skynet:nolint hotcall -- constructor body; see the waiver on FromSlice
	t := &Tensor{Data: data}
	//skynet:nolint hotcall -- fills the header's dims; allocates only above rank 4, which no hot caller builds
	s := append(t.dims[:0], shape...)
	t.shape = s[:len(s):len(s)]
	return t
}

// checkShape validates a shape and returns its element count. Pure
// validation: the panic formatting, of a copy so that a caller's variadic
// shape does not escape, is the only (cold) allocation source.
//
//skynet:hotpath
func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", slices.Clone(shape)))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
//
//skynet:hotpath
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
//
//skynet:hotpath
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
//
//skynet:hotpath
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
//
//skynet:hotpath
func (t *Tensor) Len() int { return len(t.Data) }

// SameShape reports whether t and u have identical shapes.
//
//skynet:hotpath
func (t *Tensor) SameShape(u *Tensor) bool { return slices.Equal(t.shape, u.shape) }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t's data with a new shape of equal element
// count. The data is shared, not copied.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elements) to %v (%d elements)", t.shape, len(t.Data), slices.Clone(shape), n))
	}
	return FromSlice(t.Data, shape...)
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set assigns v to the element at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

// offset's panics format a copy of the index: handing idx itself to fmt would
// make At/Set's variadic slice escape, heap-allocated on every call.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong rank for shape %v", slices.Clone(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", slices.Clone(idx), t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Zero sets every element of t to zero.
//
//skynet:hotpath
func (t *Tensor) Zero() { clear(t.Data) }

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// AddInPlace adds u to t elementwise. Shapes must match.
func (t *Tensor) AddInPlace(u *Tensor) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %v vs %v", t.shape, u.shape))
	}
	for i, v := range u.Data {
		t.Data[i] += v
	}
}

// Scale multiplies every element of t by s.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// String renders a compact description (shape plus a few leading values),
// suitable for debugging.
func (t *Tensor) String() string {
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.Data[:n])
}
