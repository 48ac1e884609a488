package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Rank() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("unexpected shape %v", x.Shape())
	}
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {2, -1}, {3, 0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestFromSliceValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	want := map[[3]int]float32{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				v := rng.Float32()
				x.Set(v, i, j, k)
				want[[3]int{i, j, k}] = v
			}
		}
	}
	for idx, v := range want {
		if got := x.At(idx[0], idx[1], idx[2]); got != v {
			t.Fatalf("At(%v) = %v, want %v", idx, got, v)
		}
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	x.At(2, 0)
}

// TestAtSetDoNotAllocate pins the accessors' cost: the variadic index must
// stay on the caller's stack (offset formats a copy of it on the panic
// paths only), while both panics still carry the index in their message.
func TestAtSetDoNotAllocate(t *testing.T) {
	x := New(2, 3, 4)
	var sink float32
	if allocs := testing.AllocsPerRun(100, func() { sink += x.At(1, 2, 3) }); allocs != 0 {
		t.Errorf("At: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { x.Set(sink, 1, 2, 3) }); allocs != 0 {
		t.Errorf("Set: %v allocs/op, want 0", allocs)
	}
	for _, tc := range []struct {
		name string
		call func()
		want string
	}{
		{"out-of-range", func() { x.At(1, 3, 0) }, "tensor: index [1 3 0] out of range for shape [2 3 4]"},
		{"wrong-rank", func() { x.Set(1, 1, 2) }, "tensor: index [1 2] has wrong rank for shape [2 3 4]"},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("%s: panic %v, want %q", tc.name, got, tc.want)
				}
			}()
			tc.call()
		}()
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Data[5] = 7
	if x.Data[5] != 7 {
		t.Fatal("Reshape must share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape with wrong element count did not panic")
		}
	}()
	x.Reshape(5, 5)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Data[0] = 99
	if x.Data[0] != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 4)
	b := FromSlice([]float32{10, 20, 30, 40}, 4)
	a.AddInPlace(b)
	if a.Data[3] != 44 {
		t.Fatalf("AddInPlace: got %v", a.Data)
	}
	a.SubInPlace(b)
	if a.Data[3] != 4 {
		t.Fatalf("SubInPlace: got %v", a.Data)
	}
	a.MulInPlace(b)
	if a.Data[0] != 10 {
		t.Fatalf("MulInPlace: got %v", a.Data)
	}
	a.Scale(0.5)
	if a.Data[0] != 5 {
		t.Fatalf("Scale: got %v", a.Data)
	}
	a.AXPY(2, b)
	if a.Data[0] != 25 {
		t.Fatalf("AXPY: got %v", a.Data)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a, b := New(2, 2), New(4)
	for name, f := range map[string]func(){
		"Add":  func() { a.AddInPlace(b) },
		"Sub":  func() { a.SubInPlace(b) },
		"Mul":  func() { a.MulInPlace(b) },
		"AXPY": func() { a.AXPY(1, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with shape mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float32{-1, 0, 3, 2}, 4)
	if x.Sum() != 4 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != 1 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if x.Max() != 3 {
		t.Fatalf("Max = %v", x.Max())
	}
	if x.Min() != -1 {
		t.Fatalf("Min = %v", x.Min())
	}
	if x.Dot(x) != 1+0+9+4 {
		t.Fatalf("Dot = %v", x.Dot(x))
	}
}

// elemFunc addresses one element of a GEMM operand as the product sees it:
// (i, p) of op(A) or (p, j) of op(B), whatever the storage order.
type elemFunc func(r, c int) float32

// rowMajor addresses d as stored, with row stride ld.
func rowMajor(d []float32, ld int) elemFunc {
	return func(r, c int) float32 { return d[r*ld+c] }
}

// transposed addresses the transpose of d, which is stored with row stride ld.
func transposed(d []float32, ld int) elemFunc {
	return func(r, c int) float32 { return d[c*ld+r] }
}

// naiveMatMul is the package's one GEMM reference, test-only and
// independent of both production kernels: C (+)= op(A)·op(B) (+ bias), one
// element at a time through explicit index functions. c has row stride
// ldc; with acc the products are added to what c holds, otherwise c is
// overwritten and rowBias[i]/colBias[j] (either may be nil) are added.
//
// kb spells out the summation order, the one thing the production paths
// are allowed to differ in: the products of an element are summed from
// zero in ascending k in partial sums of kb terms, and the partial sums are
// folded into the element in order, the bias joining the first fold. kb = k
// is a single dot product per element.
func naiveMatMul(c []float32, ldc int, a, b elemFunc, m, n, k, kb int, acc bool, rowBias, colBias []float32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var v float32
			if acc {
				v = c[i*ldc+j]
			}
			for p0 := 0; p0 < k; p0 += kb {
				var s float32
				for p := p0; p < min(p0+kb, k); p++ {
					s += float32(a(i, p) * b(p, j))
				}
				v += s
				if p0 == 0 && !acc {
					if rowBias != nil {
						v += rowBias[i]
					}
					if colBias != nil {
						v += colBias[j]
					}
				}
			}
			c[i*ldc+j] = v
		}
	}
}

// naiveProduct is naiveMatMul for the plain dense case c = a·b.
func naiveProduct(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	naiveMatMul(c.Data, n, rowMajor(a.Data, k), rowMajor(b.Data, n), m, n, k, k, false, nil, nil)
	return c
}

func tensorsClose(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i]-b.Data[i])) > tol {
			return false
		}
	}
	return true
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 6}, {16, 9, 13}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := New(m, k), New(k, n)
		a.RandNormal(rng, 0, 1)
		b.RandNormal(rng, 0, 1)
		got := MatMul(a, b)
		want := naiveProduct(a, b)
		if !tensorsClose(got, want, 1e-4) {
			t.Fatalf("MatMul mismatch for dims %v", dims)
		}
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, k, n := 5, 4, 6
	a, b := New(m, k), New(k, n)
	a.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)
	want := naiveProduct(a, b)

	// c = (aᵀ)ᵀ·b via MatMulTransposeAInto with at of shape [k,m].
	at := New(k, m)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			at.Set(a.At(i, p), p, i)
		}
	}
	c1 := New(m, n)
	MatMulTransposeAInto(c1, at, b)
	if !tensorsClose(c1, want, 1e-4) {
		t.Fatal("MatMulTransposeAInto mismatch")
	}

	// c = a·(bᵀ)ᵀ via MatMulTransposeBInto with bt of shape [n,k].
	bt := New(n, k)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bt.Set(b.At(p, j), j, p)
		}
	}
	c2 := New(m, n)
	MatMulTransposeBInto(c2, a, bt)
	if !tensorsClose(c2, want, 1e-4) {
		t.Fatal("MatMulTransposeBInto mismatch")
	}
}

func TestMatMulAddIntoAccumulates(t *testing.T) {
	a := FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	b := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	c := FromSlice([]float32{10, 10, 10, 10}, 2, 2)
	MatMulAddInto(c, a, b)
	want := []float32{11, 12, 13, 14}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMulAddInto: got %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with inner mismatch did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestConvOut(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{8, 3, 1, 1, 8},
		{8, 3, 2, 1, 4},
		{7, 3, 1, 0, 5},
		{4, 2, 2, 0, 2},
	}
	for _, c := range cases {
		if got := ConvOut(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOut(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

// naiveConv computes a direct convolution for validating the im2col path.
func naiveConv(img, w *Tensor, stride, pad int) *Tensor {
	c, h, wd := img.Dim(0), img.Dim(1), img.Dim(2)
	oc, kh, kw := w.Dim(0), w.Dim(2), w.Dim(3)
	outH, outW := ConvOut(h, kh, stride, pad), ConvOut(wd, kw, stride, pad)
	out := New(oc, outH, outW)
	for o := 0; o < oc; o++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				var s float32
				for ci := 0; ci < c; ci++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
							if iy < 0 || iy >= h || ix < 0 || ix >= wd {
								continue
							}
							s += img.At(ci, iy, ix) * w.At(o, ci, ky, kx)
						}
					}
				}
				out.Set(s, o, oy, ox)
			}
		}
	}
	return out
}

func TestIm2ColConvMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cfg := range []struct{ c, h, w, oc, k, s, p int }{
		{1, 5, 5, 2, 3, 1, 1},
		{3, 8, 6, 4, 3, 2, 1},
		{2, 7, 7, 3, 1, 1, 0},
	} {
		img := New(cfg.c, cfg.h, cfg.w)
		img.RandNormal(rng, 0, 1)
		w := New(cfg.oc, cfg.c, cfg.k, cfg.k)
		w.RandNormal(rng, 0, 1)
		outH := ConvOut(cfg.h, cfg.k, cfg.s, cfg.p)
		outW := ConvOut(cfg.w, cfg.k, cfg.s, cfg.p)
		col := New(cfg.c*cfg.k*cfg.k, outH*outW)
		Im2Col(col, img, cfg.k, cfg.k, cfg.s, cfg.p)
		wm := w.Reshape(cfg.oc, cfg.c*cfg.k*cfg.k)
		got := MatMul(wm, col).Reshape(cfg.oc, outH, outW)
		want := naiveConv(img, w, cfg.s, cfg.p)
		if !tensorsClose(got, want, 1e-4) {
			t.Fatalf("im2col conv mismatch for %+v", cfg)
		}
	}
}

// TestIm2ColCol2ImAdjoint checks the defining adjoint property
// <Im2Col(x), y> == <x, Col2Im(y)> which is exactly what makes Col2Im
// the correct gradient operator.
func TestIm2ColCol2ImAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c, h, w, k, s, p := 2, 6, 5, 3, 1, 1
	outH, outW := ConvOut(h, k, s, p), ConvOut(w, k, s, p)
	x := New(c, h, w)
	x.RandNormal(rng, 0, 1)
	y := New(c*k*k, outH*outW)
	y.RandNormal(rng, 0, 1)
	cx := New(c*k*k, outH*outW)
	Im2ColInto(cx.Data, x.Data, c, h, w, k, k, s, p)
	xy := New(c, h, w)
	Col2Im(xy.Data, y.Data, c, h, w, k, k, s, p)
	lhs := float64(cx.Dot(y))
	rhs := float64(x.Dot(xy))
	if math.Abs(lhs-rhs) > 1e-3*(1+math.Abs(lhs)) {
		t.Fatalf("adjoint property violated: <Ax,y>=%v, <x,Aᵀy>=%v", lhs, rhs)
	}
}

func TestInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := New(10000)
	x.RandUniform(rng, -1, 1)
	if x.Min() < -1 || x.Max() >= 1 {
		t.Fatalf("RandUniform out of range: [%v,%v]", x.Min(), x.Max())
	}
	x.HeInit(rng, 50)
	std := math.Sqrt(float64(x.Dot(x)) / float64(x.Len()))
	want := math.Sqrt(2.0 / 50)
	if math.Abs(std-want) > 0.1*want {
		t.Fatalf("HeInit std = %v, want ≈ %v", std, want)
	}
	x.XavierInit(rng, 30, 70)
	limit := math.Sqrt(6.0 / 100)
	if float64(x.Max()) > limit || float64(x.Min()) < -limit {
		t.Fatalf("XavierInit out of range [%v, %v], limit %v", x.Min(), x.Max(), limit)
	}
}

// Property: reshaping to any factorization preserves the flat data.
func TestQuickReshapePreservesData(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		x := New(n)
		x.RandNormal(rng, 0, 1)
		y := x.Reshape(1, n).Reshape(n, 1).Reshape(n)
		for i := range x.Data {
			if x.Data[i] != y.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MatMul distributes over addition: A(B+C) == AB + AC.
func TestQuickMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b, c := New(m, k), New(k, n), New(k, n)
		a.RandNormal(rng, 0, 1)
		b.RandNormal(rng, 0, 1)
		c.RandNormal(rng, 0, 1)
		bc := b.Clone()
		bc.AddInPlace(c)
		lhs := MatMul(a, bc)
		rhs := MatMul(a, b)
		rhs.AddInPlace(MatMul(a, c))
		return tensorsClose(lhs, rhs, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Col2Im(Im2Col(x)) with a 1x1 kernel and stride 1 is the
// identity (each pixel appears exactly once).
func TestQuickIm2ColIdentityFor1x1(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, h, w := 1+rng.Intn(3), 1+rng.Intn(6), 1+rng.Intn(6)
		x := New(c, h, w)
		x.RandNormal(rng, 0, 1)
		col := New(c, h*w)
		Im2Col(col, x, 1, 1, 1, 0)
		back := New(c, h, w)
		Col2Im(back.Data, col.Data, c, h, w, 1, 1, 1, 0)
		return tensorsClose(x, back, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
