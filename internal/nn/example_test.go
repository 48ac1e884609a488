package nn_test

import (
	"fmt"
	"math/rand"

	"skynet/internal/nn"
	"skynet/internal/tensor"
)

func ExampleGraph() {
	// A minimal SkyNet-style Bundle: DW-Conv3 → PW-Conv1 → BN → ReLU6, each
	// layer fed by the one added before it.
	rng := rand.New(rand.NewSource(1))
	g := nn.NewGraph()
	g.Add(nn.NewDWConv3(rng, 3, 3, false))
	g.Add(nn.NewPWConv1(rng, 3, 48, false))
	g.Add(nn.NewBatchNorm(48))
	g.Add(nn.NewReLU6())
	x := tensor.New(1, 3, 8, 16)
	out := g.Forward(x, false)
	fmt.Println(out.Shape())
	// Output: [1 48 8 16]
}

func ExampleLRSchedule() {
	// The paper's recipe: learning rate decaying from 1e-4 to 1e-7.
	s := nn.LRSchedule{Start: 1e-4, End: 1e-7, Epochs: 4}
	fmt.Printf("%.0e %.0e\n", s.At(0), s.At(3))
	// Output: 1e-04 1e-07
}

func ExampleReorg() {
	// Figure 5: space-to-depth turns [1,1,4,4] into [1,4,2,2] losslessly.
	r := nn.NewReorg(2)
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out := r.Forward([]*tensor.Tensor{x}, false)
	fmt.Println(out.Shape(), out.Data[:4])
	// Output: [1 4 2 2] [1 3 9 11]
}
