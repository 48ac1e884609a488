package nn

import (
	"fmt"
	"time"

	"skynet/internal/tensor"
)

// stepTimer walks the samples of the forward in flight as PlanCache.WalkSample
// does, but times every step it runs, lane by lane.
type stepTimer struct {
	c     *PlanCache
	spent [][]time.Duration // by lane, then by plan step
}

func (s *stepTimer) WalkSample(li, i int, leaf bool) {
	c := s.c
	p, l := c.p, c.lanes[li]
	l.x, l.out = c.x[i*p.input.Size:(i+1)*p.input.Size], c.outs[i]
	for k := range p.steps {
		if st := &p.steps[k]; !st.Laid {
			start := time.Now()
			c.step(st, li, leaf)
			s.spent[li][k] += time.Since(start)
		}
	}
}

// StepTimes runs one inference forward of x on g as Graph.Forward runs it —
// the same plan, lanes, bands and splits — and returns each plan step's name
// and its time in that forward: the most any one lane spent on it, over all
// the samples the lane walked, so that on one lane the times add up to the
// forward's. A benchmark seam, not an API: the product has no per-step clock.
func StepTimes(g *Graph, x *tensor.Tensor) (names []string, times []time.Duration) {
	c := g.free.Get()
	defer g.free.Put(c)
	p, n := c.For(x.Shape()), x.Dim(0)
	out := tensor.New(p.batch(n)...)
	lanes := LanesFor(n)
	p.prepare(lanes, true)
	c.p, c.x, c.outs = p, x.Data, SampleRows(c.outs, out.Data, n)
	timer := &stepTimer{c: c, spent: make([][]time.Duration, lanes)}
	for i := range timer.spent {
		timer.spent[i] = make([]time.Duration, len(p.steps))
	}
	RunLanes(timer, n, lanes)
	for _, l := range c.lanes[:lanes] {
		l.x, l.out = nil, nil
	}
	clear(c.outs)
	c.p, c.x = nil, nil
	for k, st := range p.steps {
		if !st.Laid {
			var most time.Duration
			for _, spent := range timer.spent {
				most = max(most, spent[k])
			}
			kind := fmt.Sprintf("%T", p.nodes[st.Node].layer)[len("*nn."):]
			if st.Band != nil {
				kind = "Bundle"
			}
			names, times = append(names, fmt.Sprintf("step%d_%s", len(names), kind)), append(times, most)
		}
	}
	return names, times
}
