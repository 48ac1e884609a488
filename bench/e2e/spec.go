package main

// BENCHMARK.json is the contract: every metric's name and unit, and every
// end-to-end metric's bound as a share of the parent's median, live there.
// This file loads it, so the printer, compare mode and the tests all work
// from the same list. The file's schema has no key for the absolute floor
// the issue attaches to two of the bounds; those two numbers are below.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// specMetric is one metric declared in BENCHMARK.json. Bound is the share
// of the parent's median an end-to-end metric may worsen by; per-layer
// metrics have none.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is the parsed BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// absoluteFloor is the least amount, in the metric's own unit, by which an
// end-to-end metric must worsen before compare mode calls it a regression:
// setup_s may rise by "25 % or 0.5 s, whichever is larger", allocs_per_op by
// "5 % or 2, whichever is larger". The acceptance driver knows only the
// shares in BENCHMARK.json, so it is the stricter judge on small values.
var absoluteFloor = map[string]float64{"setup_s": 0.5, "allocs_per_op": 2}

// speedPrefix marks the per-layer entries that are the workload's own speed
// (throughput and latency percentiles). Untraced runs measure them too, and
// compare mode lists them beside the gated rows without a verdict.
const speedPrefix = "e2e."

// speedMetrics returns the per-layer entries under speedPrefix.
func (s *spec) speedMetrics() []specMetric {
	var out []specMetric
	for _, m := range s.PerLayer {
		if strings.HasPrefix(m.Name, speedPrefix) {
			out = append(out, m)
		}
	}
	return out
}

// loadSpec finds BENCHMARK.json in dir or the nearest directory above it.
func loadSpec(dir string) (*spec, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var s spec
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, fmt.Errorf("spec: BENCHMARK.json: %w", err)
			}
			return &s, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("spec: %w", err)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("spec: no BENCHMARK.json in this directory or above it")
		}
		dir = parent
	}
}

// contractMetrics picks from a run exactly the metrics the contract wants
// on the result line: every end-to-end metric of an untraced run, every
// per-layer metric of a traced one. A per-layer metric the workload has no
// path through is reported as 0; a missing end-to-end metric, or a traced
// run's metric that BENCHMARK.json does not declare, is an error.
func (s *spec) contractMetrics(r *result) (map[string]metric, error) {
	declared := map[string]bool{}
	for _, m := range s.allMetrics() {
		declared[m.Name] = true
	}
	for name := range r.Metrics {
		if !declared[name] {
			return nil, fmt.Errorf("workload %s reported %s, which BENCHMARK.json does not declare", r.Workload, name)
		}
	}
	want := s.EndToEnd
	if r.Traced {
		want = s.PerLayer
	}
	out := map[string]metric{}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok && !r.Traced {
			return nil, fmt.Errorf("workload %s did not report %s", r.Workload, m.Name)
		}
		out[m.Name] = metric{Value: got.Value, Unit: m.Unit}
	}
	return out, nil
}

// allMetrics is every declared metric, end-to-end first.
func (s *spec) allMetrics() []specMetric {
	return append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...)
}
