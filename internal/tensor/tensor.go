// Package tensor provides dense float32 tensors in row-major (NCHW) layout
// together with the linear-algebra and image-lowering primitives needed by
// the neural-network layers in internal/nn: matrix multiplication, im2col /
// col2im, elementwise arithmetic and reductions.
//
// The package is deliberately small and allocation-transparent: a Tensor is
// a shape plus a flat []float32, and every operation documents whether it
// allocates or works in place. All operations are deterministic so that
// experiments are reproducible from a seed: the blocked GEMM (gemm.go) may
// fan work out across a worker pool, but it splits only along the output
// columns, so every output element sees the identical k-summation order
// regardless of worker count and results are bitwise reproducible. All
// other operations are single-goroutine.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 tensor. The zero value is an empty
// tensor; use New or FromSlice to construct usable values.
type Tensor struct {
	shape []int
	Data  []float32
}

// New returns a zero-filled tensor with the given shape. All dimensions
// must be positive.
//
//skynet:nolint hotcall -- allocating constructor by contract; hot callers reach it only on cold/shape-change paths or for the one caller-owned output of a layer call
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	//skynet:nolint hotcall -- constructor body; see the waiver on New
	return &Tensor{shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
//
//skynet:nolint hotcall -- allocating constructor by contract: one header + shape per view, no data copy
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	//skynet:nolint hotcall -- constructor body; see the waiver on FromSlice
	return &Tensor{shape: append([]int(nil), shape...), Data: data}
}

// checkShape validates a shape and returns its element count. Pure
// validation: the panic formatting is the only (cold) allocation source.
//
//skynet:hotpath
func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
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
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i, d := range t.shape {
		if u.shape[i] != d {
			return false
		}
	}
	return true
}

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
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elements) to %v (%d elements)", t.shape, len(t.Data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: t.Data}
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set assigns v to the element at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(t.indexError("has wrong rank", idx))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(t.indexError("out of range", idx))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// indexError builds offset's panic message from a copy of the index.
// Handing idx itself to fmt would make it escape, and At/Set's variadic
// slice would then be heap-allocated on every call, panicking or not.
func (t *Tensor) indexError(what string, idx []int) string {
	return fmt.Sprintf("tensor: index %v %s for shape %v", append([]int(nil), idx...), what, t.shape)
}

// Zero sets every element of t to zero.
//
//skynet:hotpath
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

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

// SubInPlace subtracts u from t elementwise. Shapes must match.
func (t *Tensor) SubInPlace(u *Tensor) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: SubInPlace shape mismatch %v vs %v", t.shape, u.shape))
	}
	for i, v := range u.Data {
		t.Data[i] -= v
	}
}

// MulInPlace multiplies t by u elementwise. Shapes must match.
func (t *Tensor) MulInPlace(u *Tensor) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: MulInPlace shape mismatch %v vs %v", t.shape, u.shape))
	}
	for i, v := range u.Data {
		t.Data[i] *= v
	}
}

// Scale multiplies every element of t by s.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AXPY adds a*u to t elementwise (t += a*u). Shapes must match.
func (t *Tensor) AXPY(a float32, u *Tensor) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: AXPY shape mismatch %v vs %v", t.shape, u.shape))
	}
	for i, v := range u.Data {
		t.Data[i] += a * v
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float32 {
	var s float32
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float32 { return t.Sum() / float32(len(t.Data)) }

// Max returns the maximum element.
func (t *Tensor) Max() float32 {
	m := float32(math.Inf(-1))
	for _, v := range t.Data {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element.
func (t *Tensor) Min() float32 {
	m := float32(math.Inf(1))
	for _, v := range t.Data {
		if v < m {
			m = v
		}
	}
	return m
}

// Dot returns the inner product of t and u viewed as flat vectors.
func (t *Tensor) Dot(u *Tensor) float32 {
	if len(t.Data) != len(u.Data) {
		panic("tensor: Dot length mismatch")
	}
	var s float32
	for i, v := range t.Data {
		s += v * u.Data[i]
	}
	return s
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
