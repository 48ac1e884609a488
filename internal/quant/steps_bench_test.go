package quant

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"skynet/internal/backbone"
	"skynet/internal/nn"
	"skynet/internal/tensor"
)

// stepTimer walks the samples of an int8 forward as qexec.WalkSample
// does, but times every step it runs, lane by lane.
type stepTimer struct {
	e     *qexec
	spent [][]time.Duration // by lane, then by step
}

func (s *stepTimer) WalkSample(li, i int, leaf bool) {
	e, l := s.e, s.e.lanes[li]
	for j := range l.vals {
		l.vals[j].coded, l.vals[j].f = false, nil
	}
	l.sample = i
	in := e.plan.Slot(nn.GraphInput).Size
	l.vals[0].f = e.x[i*in : (i+1)*in]
	for k := range e.steps {
		st := &e.steps[k]
		start := time.Now()
		e.m.units[st.Out].run(l, st, leaf)
		s.spent[li][k] += time.Since(start)
	}
	l.Map(e.m.output)
	l.vals[0].f = nil
}

// int8StepTimes is nn.StepTimes for the int8 engine: one forward of x as
// QuantizedModel.Forward runs it — the same steps, lanes and bands — and each
// step's name and time in it, the most any one lane spent on it.
func int8StepTimes(m *QuantizedModel, x *tensor.Tensor) (names []string, times []time.Duration) {
	e, n := m.free.Get(), x.Dim(0)
	defer m.free.Put(e)
	e.use(e.plans.For(x.Shape()))
	lanes := nn.LanesFor(n)
	e.prepare(lanes)
	e.outShape[0] = n
	e.x, e.outs = x.Data, nn.SampleRows(e.outs, tensor.New(e.outShape...).Data, n)
	timer := &stepTimer{e: e, spent: make([][]time.Duration, lanes)}
	for i := range timer.spent {
		timer.spent[i] = make([]time.Duration, len(e.steps))
	}
	nn.RunLanes(timer, n, lanes)
	clear(e.outs)
	e.x = nil
	for k, st := range e.steps {
		var most time.Duration
		for _, spent := range timer.spent {
			most = max(most, spent[k])
		}
		kind := fmt.Sprintf("%T", m.units[st.Out])[len("*quant.q"):]
		kind = strings.ToUpper(kind[:1]) + kind[1:]
		names, times = append(names, fmt.Sprintf("step%d_%s", k, kind)), append(times, most)
	}
	return names, times
}

// BenchmarkInt8PlanSteps is nn's BenchmarkPlanSteps on the int8 engine:
// each step of SkyNet C's int8 plan at 160×320, batch 1 and batch 4, lowered
// by Export on four frames, with every step's median over the iterations in
// ms — where an int8 forward, and so stream-int8's first frame, spends its
// time. Run with -benchtime 20x or more for stable medians.
func BenchmarkInt8PlanSteps(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := backbone.SkyNetC(rng, backbone.DefaultConfig())
	qm, err := Export(g, []*tensor.Tensor{randBatch(rng, 4, 3, 160, 320)}, ExportConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("batch%d", n), func(b *testing.B) {
			x := randBatch(rng, n, 3, 160, 320)
			qm.Forward(x, false) // compile the plan, grow the arena
			var names []string
			var samples [][]float64 // by step, then by iteration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var times []time.Duration
				names, times = int8StepTimes(qm, x)
				if samples == nil {
					samples = make([][]float64, len(times))
				}
				for k, d := range times {
					samples[k] = append(samples[k], float64(d)/1e6)
				}
			}
			for k, name := range names {
				slices.Sort(samples[k])
				b.ReportMetric(samples[k][len(samples[k])/2], name+"_ms")
			}
		})
	}
}

// BenchmarkQuantizeWeights quantizes every convolution weight of full-width
// SkyNet C per output channel, as Export's lowering does, and reports the
// cost per weight.
func BenchmarkQuantizeWeights(b *testing.B) {
	g := backbone.SkyNetC(rand.New(rand.NewSource(1)), backbone.DefaultConfig())
	type matrix struct {
		w          []float32
		rows, cols int
	}
	var ws []matrix
	weights := 0
	for _, nd := range g.Nodes {
		switch l := nd.Layer.(type) {
		case *nn.Conv2D:
			ws = append(ws, matrix{l.Weight.W.Data, l.OutC, l.InC * l.K * l.K})
		case *nn.DWConv3:
			ws = append(ws, matrix{l.Weight.W.Data, l.C, l.K * l.K})
		}
	}
	for _, m := range ws {
		weights += m.rows * m.cols
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range ws {
			QuantizeWeightsPerChannel(m.w, m.rows, m.cols)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*weights), "ns/weight")
}
