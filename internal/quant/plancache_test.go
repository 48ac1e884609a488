package quant

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"skynet/internal/backbone"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// TestPlanCacheServesEveryShape: one int8 model, calibrated on 48×96 frames,
// takes 48×96 and 64×128 frames in turn. Export compiles the calibration
// shape once — calibration's plan is the one its forwards run, and the model
// holds that one plan after them. Once both shapes are warm, a forward
// allocates no more than the float engine's does on the same alternation —
// no recompile at a change of shape —, and every output is bit for bit that
// of a model that only ever saw its shape.
func TestPlanCacheServesEveryShape(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	g := backbone.SkyNetC(rng, backbone.Config{Width: 0.25, InC: 3, HeadChannels: 10, ReLU6: true})
	settle(g, rng)
	calib := []*tensor.Tensor{randBatch(rng, 2, 3, 48, 96)}
	export := func() *QuantizedModel {
		qm, err := Export(g, calib, ExportConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return qm
	}
	qm := export()
	if n := qm.last().plans.Len(); n != 1 {
		t.Fatalf("Export at one sample shape left %d plans", n)
	}
	p := qm.last().plans.For(calib[0].Shape())
	for k := 0; k < 3; k++ {
		qm.Forward(randBatch(rng, 1+k, 3, 48, 96), false)
	}
	if n := qm.last().plans.Len(); n != 1 || qm.last().plan != p {
		t.Fatalf("after three forwards at the calibration shape: %d plans, the forwards' is calibration's: %v", n, qm.last().plan == p)
	}

	for _, batch := range []int{1, 3} {
		xs := []*tensor.Tensor{randBatch(rng, batch, 3, 48, 96), randBatch(rng, batch, 3, 64, 128)}
		var want [][]float32
		for _, x := range xs {
			alone := export()
			alone.Forward(x, false)
			want = append(want, forwardCopy(alone, x))
		}
		for rep := 0; rep < 2; rep++ {
			for i, x := range xs {
				if got := forwardCopy(qm, x); !sameBits(got, want[i]) {
					t.Fatalf("batch %d, input %v: the model that takes both shapes differs from one that takes this one alone", batch, x.Shape())
				}
			}
		}
		alternate := func(forward func(*tensor.Tensor, bool) *tensor.Tensor) float64 {
			var out *tensor.Tensor
			allocs := testing.AllocsPerRun(10, func() {
				for _, x := range xs {
					out = forward(x, false)
				}
			})
			runtime.KeepAlive(out)
			return allocs / float64(len(xs))
		}
		for _, w := range []int{1, 2} {
			workers(w, func() {
				alternate(g.Forward)
				int8, float := alternate(qm.Forward), alternate(g.Forward)
				if int8 > float {
					t.Errorf("batch %d on %d workers, shapes alternating: %v allocs per int8 forward, %v per float forward", batch, w, int8, float)
				}
			})
		}
	}
	if n := qm.last().plans.Len(); n != 2 {
		t.Fatalf("a model that took two sample shapes holds %d plans", n)
	}
}

// TestObservedRunOrderPinned pins what an observed one-lane run shows its
// observer, node by node in the order shown ("nxk": node n k times in a row),
// on one worker, so that the pieces of a Bundle step come band by band in
// order: SkyNet A, B and C at 160×320 and mixedGraph. The sequences were
// recorded from the executor that walked the plan's node table: walking the
// step list instead must show neither calibration nor nn.StepTimes the steps
// in another order.
func TestObservedRunOrderPinned(t *testing.T) {
	rle := func(seq []int) string {
		var parts []string
		for i := 0; i < len(seq); {
			j := i
			for j < len(seq) && seq[j] == seq[i] {
				j++
			}
			if parts = append(parts, fmt.Sprint(seq[i])); j-i > 1 {
				parts[len(parts)-1] += fmt.Sprintf("x%d", j-i)
			}
			i = j
		}
		return strings.Join(parts, " ")
	}
	const bundles12 = "0 3 0 3 0 3 0 3 0 3 0 3 0 3 0 3 0 3 0 3 4 5 8 5 8 5 8 5 8 5 8 5 8 5 8 5 8 9 10 13 10 13 10 13 10 13 14 "
	cases := []struct {
		name string
		g    *nn.Graph
		h, w int
		want string
	}{
		{"mixed", mixedGraph(rand.New(rand.NewSource(7))), 22, 30, "2 3 4 5 6 7 8 10"},
	}
	if !testing.Short() {
		rng := rand.New(rand.NewSource(47))
		for _, c := range []struct {
			v    backbone.SkyNetVariant
			want string
		}{
			{backbone.VariantA, bundles12 + "15 18 19x2 22 23"},
			{backbone.VariantB, bundles12 + "23 15 18 19x2 22 24 25x4 28 29"},
			{backbone.VariantC, bundles12 + "23 15 18 19x2 22 24 25x4 28 29"},
		} {
			g := backbone.SkyNet(rng, backbone.Config{Width: 1, InC: 3, HeadChannels: 10, ReLU6: true}, c.v)
			cases = append(cases, struct {
				name string
				g    *nn.Graph
				h, w int
				want string
			}{"SkyNet" + c.v.String(), g, 160, 320, c.want})
		}
	}
	for _, c := range cases {
		x := randBatch(rand.New(rand.NewSource(48)), 1, 3, c.h, c.w)
		var seq []int
		workers(1, func() {
			nn.Compile(c.g, x.Shape(), nil).Run(x, func(i int, _ []float32) { seq = append(seq, i) })
		})
		if got := rle(seq); got != c.want {
			t.Errorf("%s at %d×%d: observed\n %s\nwant\n %s", c.name, c.h, c.w, got, c.want)
		}
	}
}
