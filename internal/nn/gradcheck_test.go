package nn

import (
	"math"
	"math/rand"
	"testing"

	"skynet/internal/tensor"
)

// scalarize projects a tensor to a scalar with fixed random coefficients so
// that gradients of every output element are exercised at once.
func scalarize(t *tensor.Tensor, r *tensor.Tensor) float64 {
	var s float32
	for i, v := range t.Data {
		s += v * r.Data[i]
	}
	return float64(s)
}

// checkLayerGradients validates a layer's input and parameter gradients
// against central finite differences.
func checkLayerGradients(t *testing.T, l Layer, x *tensor.Tensor, train bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(123))
	xs := []*tensor.Tensor{x}
	out := l.Forward(xs, train)
	r := tensor.New(out.Shape()...)
	r.RandNormal(rng, 0, 1)
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	dx := l.Backward(xs, r.Clone())[0]

	const eps = 1e-2
	const tol = 2e-2
	check := func(name string, data []float32, analytic func(i int) float32, forward func() *tensor.Tensor) {
		idxs := pickIndices(rng, len(data), 12)
		for _, i := range idxs {
			orig := data[i]
			data[i] = orig + eps
			fp := scalarize(forward(), r)
			data[i] = orig - eps
			fm := scalarize(forward(), r)
			data[i] = orig
			num := (fp - fm) / (2 * eps)
			ana := float64(analytic(i))
			if math.Abs(num-ana) > tol*(1+math.Abs(num)+math.Abs(ana)) {
				t.Errorf("%s: grad[%d] analytic %v vs numeric %v", name, i, ana, num)
			}
		}
	}

	fwd := func() *tensor.Tensor { return l.Forward([]*tensor.Tensor{x}, train) }
	check(l.Name()+"/input", x.Data, func(i int) float32 { return dx.Data[i] }, fwd)
	for _, p := range l.Params() {
		p := p
		check(l.Name()+"/"+p.Name, p.W.Data, func(i int) float32 { return p.G.Data[i] }, fwd)
	}
}

func pickIndices(rng *rand.Rand, n, k int) []int {
	if n <= k {
		idxs := make([]int, n)
		for i := range idxs {
			idxs[i] = i
		}
		return idxs
	}
	seen := map[int]bool{}
	var idxs []int
	for len(idxs) < k {
		i := rng.Intn(n)
		if !seen[i] {
			seen[i] = true
			idxs = append(idxs, i)
		}
	}
	return idxs
}

func randInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.RandNormal(rng, 0, 1)
	return x
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewConv2D(rng, 2, 3, 3, 1, 1, true)
	checkLayerGradients(t, l, randInput(rng, 2, 2, 5, 4), true)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewConv2D(rng, 3, 2, 3, 2, 1, false)
	checkLayerGradients(t, l, randInput(rng, 1, 3, 6, 6), true)
}

func TestPWConv1Gradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewPWConv1(rng, 4, 3, true)
	checkLayerGradients(t, l, randInput(rng, 2, 4, 3, 3), true)
}

func TestDWConv3Gradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewDWConv3(rng, 3, 3, true)
	checkLayerGradients(t, l, randInput(rng, 2, 3, 5, 4), true)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checkLayerGradients(t, NewReLU(), randInput(rng, 2, 3, 4, 4), true)
}

func TestReLU6Gradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randInput(rng, 2, 3, 4, 4)
	x.Scale(4) // push some values above the cap
	checkLayerGradients(t, NewReLU6(), x, true)
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewBatchNorm(3)
	checkLayerGradients(t, l, randInput(rng, 4, 3, 3, 3), true)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	checkLayerGradients(t, NewMaxPool(2), randInput(rng, 2, 2, 4, 6), true)
}

func TestReorgGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checkLayerGradients(t, NewReorg(2), randInput(rng, 2, 2, 4, 6), true)
}

func TestFlattenGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	checkLayerGradients(t, NewFlatten(), randInput(rng, 2, 3, 2, 2), true)
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := NewLinear(rng, 6, 4)
	checkLayerGradients(t, l, randInput(rng, 3, 6), true)
}

func TestConcatGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randInput(rng, 2, 2, 3, 3)
	b := randInput(rng, 2, 3, 3, 3)
	l := NewConcat()
	xs := []*tensor.Tensor{a, b}
	out := l.Forward(xs, true)
	r := tensor.New(out.Shape()...)
	r.RandNormal(rng, 0, 1)
	dins := l.Backward(xs, r)
	if len(dins) != 2 {
		t.Fatalf("concat backward returned %d grads", len(dins))
	}
	// finite differences on input a
	const eps, tol = 1e-2, 1e-3
	for _, i := range pickIndices(rng, a.Len(), 8) {
		orig := a.Data[i]
		a.Data[i] = orig + eps
		fp := scalarize(l.Forward([]*tensor.Tensor{a, b}, true), r)
		a.Data[i] = orig - eps
		fm := scalarize(l.Forward([]*tensor.Tensor{a, b}, true), r)
		a.Data[i] = orig
		num := (fp - fm) / (2 * eps)
		if math.Abs(num-float64(dins[0].Data[i])) > tol*(1+math.Abs(num)) {
			t.Fatalf("concat input-a grad mismatch at %d", i)
		}
	}
}

func TestAddGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randInput(rng, 2, 2, 2, 2)
	b := randInput(rng, 2, 2, 2, 2)
	l := NewAdd()
	xs := []*tensor.Tensor{a, b}
	out := l.Forward(xs, true)
	r := tensor.New(out.Shape()...)
	r.RandNormal(rng, 0, 1)
	dins := l.Backward(xs, r)
	for i := range r.Data {
		if dins[0].Data[i] != r.Data[i] || dins[1].Data[i] != r.Data[i] {
			t.Fatal("add must pass the gradient to both inputs")
		}
	}
}
