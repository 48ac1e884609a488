package tensor

import (
	"bytes"
	"encoding/gob"
	"slices"
	"testing"
)

// headerShapes are one shape of each rank the header holds inline.
var headerShapes = [][]int{{6}, {2, 3}, {2, 3, 4}, {1, 2, 3, 4}}

// TestHeaderAllocations pins what a tensor costs: New and Clone make the
// header and the data, FromSlice and Reshape the header alone. The shape
// lives inside the header up to rank 4.
func TestHeaderAllocations(t *testing.T) {
	for _, shape := range headerShapes {
		x := New(shape...)
		for _, c := range []struct {
			name string
			want float64
			call func()
		}{
			{"New", 2, func() { New(shape...) }},
			{"Clone", 2, func() { x.Clone() }},
			{"FromSlice", 1, func() { FromSlice(x.Data, shape...) }},
			{"Reshape", 1, func() { x.Reshape(shape...) }},
		} {
			if got := testing.AllocsPerRun(50, c.call); got != c.want {
				t.Errorf("%s%v: %v allocs, want %v", c.name, shape, got, c.want)
			}
		}
	}
	// A shape passed as arguments is not kept: its variadic slice, of values
	// known only at run time, stays on the caller's stack.
	x := New(1, 2, 3, 4)
	a, b, c, d := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if got := testing.AllocsPerRun(50, func() { New(a, b, c, d) }); got != 2 {
		t.Errorf("New(a, b, c, d): %v allocs, want 2", got)
	}
	if got := testing.AllocsPerRun(50, func() { FromSlice(x.Data, c, b*d).Reshape(a*b, c*d) }); got != 2 {
		t.Errorf("FromSlice(data, c, b*d).Reshape(a*b, c*d): %v allocs, want 2", got)
	}
}

// TestHeaderRank5: a shape too wide for the header keeps a slice of its own
// and behaves as any other.
func TestHeaderRank5(t *testing.T) {
	shape := []int{2, 1, 3, 1, 2}
	x := New(shape...)
	x.Set(7, 1, 0, 2, 0, 1)
	if !slices.Equal(x.Shape(), shape) || x.Rank() != 5 || x.Len() != 12 || x.At(1, 0, 2, 0, 1) != 7 {
		t.Fatalf("rank 5: shape %v rank %d len %d", x.Shape(), x.Rank(), x.Len())
	}
	y := x.Clone().Reshape(12).Reshape(shape...)
	if !y.SameShape(x) || !slices.Equal(y.Data, x.Data) {
		t.Fatalf("rank 5 clone/reshape: %v %v", y.Shape(), y.Data)
	}
}

// TestHeaderOwnsShape: a tensor's shape is its own. Changing the slice a
// constructor was given, appending to Shape(), or reshaping a view leaves
// the tensor as it was.
func TestHeaderOwnsShape(t *testing.T) {
	for _, shape := range append(slices.Clone(headerShapes), []int{1, 2, 1, 3, 1}) {
		want := slices.Clone(shape)
		in := slices.Clone(shape)
		made := []*Tensor{New(in...), FromSlice(make([]float32, New(shape...).Len()), in...)}
		made = append(made, made[0].Reshape(in...))
		for i := range in {
			in[i] = 99
		}
		for _, x := range made {
			if !slices.Equal(x.Shape(), want) {
				t.Fatalf("shape %v became %v after the caller's slice changed", want, x.Shape())
			}
			_ = append(x.Shape(), 5)
			if s := x.Shape(); !slices.Equal(s, want) || cap(s) != len(s) {
				t.Fatalf("shape %v became %v (cap %d) after an append to Shape()", want, s, cap(s))
			}
		}
		parent, view := made[0], made[2]
		if &view.Shape()[0] == &parent.Shape()[0] {
			t.Fatalf("a Reshape view of %v shares its parent's shape", want)
		}
		if flat := parent.Reshape(parent.Len()); flat.Rank() != 1 || !slices.Equal(parent.Shape(), want) {
			t.Fatalf("reshaping %v to a view changed the parent to %v", want, parent.Shape())
		}
	}
}

// TestGobDecodeCompactHeader: a decoded tensor's shape sits in its own
// header, not in the slice the gob wire struct decoded into.
func TestGobDecodeCompactHeader(t *testing.T) {
	for _, shape := range append(slices.Clone(headerShapes), []int{1, 2, 1, 3, 1}) {
		var buf bytes.Buffer
		gt := gobTensor{Shape: shape, Data: make([]float32, New(shape...).Len())}
		if err := gob.NewEncoder(&buf).Encode(gt); err != nil {
			t.Fatal(err)
		}
		var got Tensor
		if err := got.GobDecode(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		s := got.Shape()
		if !slices.Equal(s, shape) || cap(s) != len(s) {
			t.Fatalf("decoded shape %v (cap %d), want %v", s, cap(s), shape)
		}
		if inline := len(s) <= len(got.dims); inline != (&s[0] == &got.dims[0]) {
			t.Fatalf("rank %d: shape inside the header = %v, want %v", len(s), !inline, inline)
		}
	}
}
