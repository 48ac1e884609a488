package pipeline

// Per-stage observability: how many items each stage processed, how long it
// spent working (busy), starved for input (wait), and blocked on a full
// downstream queue (queue-full). The snapshots convert directly into the
// []float64 profiles consumed by StageBreakdown and the analytic makespan
// model, so a live run's measured occupancy can be laid side by side with
// the PipelinedMakespan prediction.

import (
	"fmt"
	"sync/atomic"
	"time"
)

// StageClock counts one stage's work: the executor keeps one per stage, and
// the serving layer one per stage of its /metrics table. The zero value is
// ready, and every method is safe for concurrent use: atomic adds only, no
// allocation, so a stage's per-item loop can call them.
type StageClock struct {
	items     atomic.Int64
	batches   atomic.Int64
	busyNS    atomic.Int64
	waitNS    atomic.Int64
	blockedNS atomic.Int64
}

// Add counts items that completed the stage's transform in busy time.
//
//skynet:hotpath
func (c *StageClock) Add(items int, busy time.Duration) {
	c.items.Add(int64(items))
	c.busyNS.Add(int64(busy))
}

// AddBatch counts one batched call.
//
//skynet:hotpath
func (c *StageClock) AddBatch() { c.batches.Add(1) }

// AddWait counts time starved for input.
//
//skynet:hotpath
func (c *StageClock) AddWait(d time.Duration) { c.waitNS.Add(int64(d)) }

// AddBlocked counts time with a result ready and the downstream queue full.
//
//skynet:hotpath
func (c *StageClock) AddBlocked(d time.Duration) { c.blockedNS.Add(int64(d)) }

// Stats snapshots the counters under the stage's name and worker count.
func (c *StageClock) Stats(name string, workers int) StageStats {
	return StageStats{
		Name:    name,
		Workers: workers,
		Items:   c.items.Load(),
		Batches: c.batches.Load(),
		Busy:    time.Duration(c.busyNS.Load()),
		Wait:    time.Duration(c.waitNS.Load()),
		Blocked: time.Duration(c.blockedNS.Load()),
	}
}

// StageStats is a snapshot of one stage's counters, aggregated across the
// stage's workers and across every run so far.
type StageStats struct {
	Name string
	// Workers is how many goroutines ran the stage: 1 for an executor
	// stage; the serving layer reports its inference workers here, and 0 for
	// a stage that runs on its callers' goroutines.
	Workers int
	// Items is the number of items that completed the stage's transform.
	Items int64
	// Batches counts BatchProc invocations; zero for per-item stages.
	Batches int64
	// Busy is the total time spent inside Proc/Batch, summed over workers.
	Busy time.Duration
	// Wait is the total time workers spent starved waiting for input.
	Wait time.Duration
	// Blocked is the total time workers spent with a result ready but the
	// downstream queue full.
	Blocked time.Duration
}

// PerItemSeconds is the mean busy time per item — the d_i of the analytic
// model.
func (s StageStats) PerItemSeconds() float64 {
	if s.Items == 0 {
		return 0
	}
	return s.Busy.Seconds() / float64(s.Items)
}

// MeanBatchSize is the average number of items per BatchProc invocation —
// the serving layer's headline batching-efficiency metric. Per-item stages
// (no batches) report 0.
func (s StageStats) MeanBatchSize() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Items) / float64(s.Batches)
}

// Occupancy is the fraction of accounted worker time spent busy (vs
// starved or blocked) — near 1 for the bottleneck stage, lower elsewhere.
func (s StageStats) Occupancy() float64 {
	total := s.Busy + s.Wait + s.Blocked
	if total <= 0 {
		return 0
	}
	return float64(s.Busy) / float64(total)
}

// String renders one stage's snapshot, e.g.
// "inference: 64 items (16 batches), 2.1ms/item, occupancy 0.97".
func (s StageStats) String() string {
	out := fmt.Sprintf("%s: %d items", s.Name, s.Items)
	if s.Batches > 0 {
		out += fmt.Sprintf(" (%d batches)", s.Batches)
	}
	out += fmt.Sprintf(", %.2fms/item, occupancy %.2f", s.PerItemSeconds()*1e3, s.Occupancy())
	return out
}

// Stats returns a snapshot of every stage's counters.
func (e *Executor) Stats() []StageStats {
	out := make([]StageStats, len(e.specs))
	for i := range e.clocks {
		out[i] = e.clocks[i].Stats(e.specs[i].Name, 1)
	}
	return out
}

// MeasuredProfile returns the per-stage busy seconds per item — a profile in
// the same units as TX2StageProfile, directly renderable with StageBreakdown
// and comparable against the analytic PipelinedMakespan model.
func (e *Executor) MeasuredProfile() []float64 {
	stats := e.Stats()
	out := make([]float64, len(stats))
	for i, s := range stats {
		out[i] = s.PerItemSeconds()
	}
	return out
}
