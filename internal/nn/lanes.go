package nn

import (
	"math"

	"skynet/internal/tensor"
)

// This file is how a batch becomes lanes, for both inference engines: the
// float plan's executor (plan.go) and internal/quant's int8 one count their
// lanes with LanesFor and have RunLanes deal them the samples.

// LanesFor returns how many lanes an inference forward of n samples runs on
// when nothing keeps it on one: the worker count w — the smaller of
// MaxParallelism and tensor.MaxParallelism, each GOMAXPROCS when zero — once
// the batch has a sample for every worker, else one.
//
//skynet:hotpath
func LanesFor(n int) int {
	if w := tensor.RangeWorkers(workersFor(math.MaxInt)); n >= w {
		return w
	}
	return 1
}

// LaneWalker is an engine's forward in flight, as RunLanes drives it.
type LaneWalker interface {
	// WalkSample takes one sample of the batch through the engine's steps on
	// the given lane — on its region of the arena and its scratch. Calls with
	// different lanes run side by side. On a leaf walk every op must stay on
	// the calling goroutine: it may call neither a dispatching GEMM nor the
	// GEMM pool.
	WalkSample(lane, sample int, leaf bool)
}

// RunLanes takes the n samples of a forward through w on the given number of
// lanes, the calling goroutine's and the GEMM pool's. On several lanes each
// has ⌊n/lanes⌋ consecutive samples to itself, walks them one after the other
// as leaves, and the lanes meet once, when all are done; the n mod lanes
// samples left over, like every sample of a forward that has one lane, then
// take lane 0 one after the other and are no leaves — their steps may split
// across the workers themselves — so neither a batch smaller than the machine
// nor a ragged one leaves a core idle.
//
//skynet:hotpath
func RunLanes(w LaneWalker, n, lanes int) {
	dealt := 0
	if lanes > 1 {
		each := n / lanes
		laneRanger.Run(lanes, laneDeal{w, each}, laneDeal.walk)
		dealt = each * lanes
	}
	for s := dealt; s < n; s++ {
		w.WalkSample(0, s, false)
	}
}

// laneRanger runs RunLanes' lanes.
var laneRanger = tensor.NewRanger[laneDeal]()

// laneDeal is one round of lanes: lane i walks samples [i·each, (i+1)·each).
type laneDeal struct {
	w    LaneWalker
	each int
}

// walk is the round's loop body: lanes [lo, hi).
//
//skynet:hotpath
func (d laneDeal) walk(lo, hi int) {
	for i := lo; i < hi; i++ {
		for s := i * d.each; s < (i+1)*d.each; s++ {
			d.w.WalkSample(i, s, true)
		}
	}
}
