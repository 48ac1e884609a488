package main

// Types every workload shares: what a run is asked to do, what it reports,
// and the bookkeeping that turns phase timings into the end-to-end metrics
// BENCHMARK.json names.

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// runConfig is one benchmark run's instructions.
type runConfig struct {
	seed    int64
	seconds float64 // timed work the run should measure for
	trace   bool    // per-layer ledger instead of end-to-end metrics
	toy     bool    // tiny models and frames: the smoke test's size
	outDir  string  // where the span file goes
	// corrupt makes the workload damage one of its own outputs before the
	// correctness checks see it. Only the tests set it, to prove the
	// checks fire.
	corrupt bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports. The last stdout line carries
// Correct, Attempted, Failed and Metrics; the rest goes to result files.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Valid     bool              `json:"valid"`
	Invalid   string            `json:"invalid_reason,omitempty"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Digest    string            `json:"output_digest"`
	Samples   map[string]int    `json:"samples"`
	Metrics   map[string]metric `json:"metrics"`
	TraceFile string            `json:"trace_file,omitempty"`
	WallS     float64           `json:"wall_s"`
}

func newResult(name string, rc runConfig) *result {
	return &result{Workload: name, Seed: rc.seed, Seconds: rc.seconds, Traced: rc.trace,
		Valid: true, Samples: map[string]int{}, Metrics: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// invalidate marks the run as one whose load generator misbehaved: its
// numbers describe the generator, not the system.
func (r *result) invalidate(format string, args ...any) {
	r.Valid = false
	if r.Invalid != "" {
		r.Invalid += "; "
	}
	r.Invalid += fmt.Sprintf(format, args...)
}

// failShare is ops failed, refused or wrong over ops attempted.
func (r *result) failShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// tally collects what the timed phases of an untraced run observe.
type tally struct {
	setups    []float64 // seconds, one per repeated set-up
	roundRate []float64 // ops/s, one per throughput round
	latencies []float64 // ms, one per op of the latency phase
	ops       int64     // ops inside the allocation-counted interval
	mem       memDelta
}

// timings writes the three speed metrics, with the estimators the issue
// names: throughput as the median over rounds (one noisy-neighbour burst
// costs one round, not the run) and the latency percentiles over every op of
// the phase. Untraced and traced runs both report them through here, under
// the one name BENCHMARK.json declares for each; they are per-layer (ungated)
// entries there because they do not repeat within a tenth in this sandbox
// (bench/README.md, "Noise").
func (r *result) timings(roundRate, latencies []float64) {
	r.set("e2e.throughput_fps", median(roundRate), "ops/s")
	r.set("e2e.latency_p50_ms", percentile(latencies, 50), "ms")
	r.set("e2e.latency_p90_ms", percentile(latencies, 90), "ms")
	r.Samples["throughput_rounds"] = len(roundRate)
	r.Samples["latency"] = len(latencies)
}

// endToEnd writes an untraced run's metrics from the tally. It runs last,
// when every op has been counted and checked.
func (r *result) endToEnd(t *tally) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("setup_s", median(t.setups), "s")
	r.set("ok_share", 1-r.failShare(), "ratio")
	r.set("peak_rss_mb", rss, "MB")
	r.set("allocs_per_op", t.mem.mallocs/float64(max(t.ops, 1)), "count")
	r.Samples["setup"] = len(t.setups)
	r.timings(t.roundRate, t.latencies)
	return nil
}

// runtimeMetrics writes the runtime.* per-layer metrics of a traced run.
func (r *result) runtimeMetrics(d memDelta, ops int64, goroutines int) {
	r.set("runtime.alloc_bytes_per_op", d.bytes/float64(max(ops, 1)), "B")
	r.set("runtime.gc_cpu_share", d.gcCPUShare, "ratio")
	r.set("runtime.gc_pause_p90_ms", percentile(d.pausesMS, 90), "ms")
	r.set("runtime.goroutines_peak", float64(goroutines), "count")
	r.Samples["gc_pauses"] = len(d.pausesMS)
}

// finite reports whether every metric is a usable number.
func (r *result) finite() error {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	return nil
}

// share is the part f of the run's seconds: phases are sized as shares,
// so that --seconds scales a run without changing its shape.
func (rc runConfig) share(f float64) time.Duration {
	return time.Duration(rc.seconds * f * float64(time.Second))
}

// repeatSetup is what setup_s times. It starts the system, then, on an
// untraced run, stops it and starts it again as often as fits in about three
// seconds (at least three times in all, at most 25; three at toy size). It
// returns the last instance with every start's duration in seconds. The
// collection at the end gives the timed phases of every run the same heap to
// start from, whatever garbage the repeats left.
func repeatSetup[T any](rc runConfig, start func() (T, error), stop func(T) error) (sys T, secs []float64, err error) {
	for i, n := 0, 1; i < n; i++ {
		if i > 0 {
			if err := stop(sys); err != nil {
				return sys, nil, fmt.Errorf("stopping the system between set-ups: %w", err)
			}
		}
		t0 := time.Now()
		if sys, err = start(); err != nil {
			return sys, nil, err
		}
		took := time.Since(t0)
		secs = append(secs, took.Seconds())
		switch {
		case i > 0 || rc.trace:
		case rc.toy:
			n = 3
		default:
			n = min(max(int(3*time.Second/took), 3), 25)
		}
	}
	runtime.GC()
	return sys, secs, nil
}

// roundRates cuts a closed loop that ran without pause from start for d
// into n rounds of equal length and returns each round's completions per
// second. done holds every op's completion time, in any order.
func roundRates(done []time.Time, start time.Time, d time.Duration, n int) []float64 {
	counts := make([]float64, n)
	round := d / time.Duration(n)
	for _, t := range done {
		if i := int(t.Sub(start) / round); i >= 0 && i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= round.Seconds()
	}
	return counts
}

// reps is the repeat count of a probe: few at toy size, where the smoke
// test only needs every name to appear.
func (rc runConfig) reps(n int) int {
	if rc.toy {
		return 2
	}
	return n
}

// timeMedian runs fn n times and returns the median duration in ms.
func timeMedian(n int, fn func()) float64 {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = ms(time.Since(t0))
	}
	return median(ds)
}
