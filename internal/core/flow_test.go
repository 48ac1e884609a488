package core

import (
	"strings"
	"testing"

	"skynet/internal/bundle"
)

// tinyFlow returns a minimal but complete flow configuration. Under -short
// every budget drops to one unit; the flow's structural guarantees don't
// depend on the training budget.
func tinyFlow() FlowConfig {
	cfg := DefaultFlowConfig()
	cfg.Dataset.W, cfg.Dataset.H = 32, 16
	cfg.TrainN, cfg.ValN = 12, 6
	cfg.Stage1Epochs = 1
	cfg.Search.PerGroup = 2
	cfg.Search.Iterations = 2
	cfg.MaxGroups = 2
	cfg.FinalEpochs = 2
	if testing.Short() {
		cfg.TrainN, cfg.ValN = 6, 3
		cfg.Search.Iterations = 1
		cfg.FinalEpochs = 1
	}
	return cfg
}

// run is Run on a configuration it must accept.
func run(t *testing.T, cfg FlowConfig) FlowResult {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunFullFlow(t *testing.T) {
	var logs []string
	cfg := tinyFlow()
	cfg.Log = func(format string, args ...any) {
		logs = append(logs, format)
	}
	res := run(t, cfg)

	// Stage 1: all 12 bundles evaluated, frontier non-empty and capped.
	if len(res.Candidates) != 12 {
		t.Fatalf("candidates %d, want 12", len(res.Candidates))
	}
	if len(res.Selected) == 0 || len(res.Selected) > 2 {
		t.Fatalf("selected %d, want 1..2", len(res.Selected))
	}
	// Stage 2: history recorded and monotone.
	if len(res.Search.History) != cfg.Search.Iterations {
		t.Fatalf("search history %d, want %d", len(res.Search.History), cfg.Search.Iterations)
	}
	for i := 1; i < len(res.Search.History); i++ {
		if res.Search.History[i] < res.Search.History[i-1] {
			t.Fatal("search history must be monotone")
		}
	}
	// Stage 3: a trained network with valid accuracy and hardware reports.
	if res.FinalNet == nil || res.Head == nil {
		t.Fatal("missing final network")
	}
	if res.FinalIoU < 0 || res.FinalIoU > 1 {
		t.Fatalf("final IoU %v", res.FinalIoU)
	}
	if res.FPGAReport.LatencyS <= 0 || res.GPULatencyMS <= 0 {
		t.Fatal("hardware reports missing")
	}
	if len(logs) == 0 {
		t.Fatal("progress log never called")
	}
}

func TestStage3ReLU6Swap(t *testing.T) {
	if testing.Short() {
		t.Skip("the ReLU6 swap needs a full flow run; TestRunFullFlow covers the flow in -short")
	}
	res := run(t, tinyFlow())
	name := res.FinalBundle.Name()
	if strings.Contains(name, "ReLU") && !strings.Contains(name, "ReLU6") {
		t.Fatalf("final bundle %s still uses plain ReLU", name)
	}
}

func TestWithReLU6(t *testing.T) {
	b := bundle.Bundle{Components: []bundle.Component{bundle.DW3, bundle.PW, bundle.BN, bundle.ReLU}}
	r := b.WithReLU6()
	if r.Components[3] != bundle.ReLU6 {
		t.Fatal("WithReLU6 must swap the activation")
	}
	if b.Components[3] != bundle.ReLU {
		t.Fatal("WithReLU6 must not mutate the receiver")
	}
}

func TestFlowDeterministic(t *testing.T) {
	cfg := tinyFlow()
	a := run(t, cfg)
	b := run(t, cfg)
	if a.FinalSpec.String() != b.FinalSpec.String() {
		t.Fatalf("flow not deterministic: %s vs %s", a.FinalSpec, b.FinalSpec)
	}
	if a.FinalIoU != b.FinalIoU {
		t.Fatalf("final IoU differs across identical runs: %v vs %v", a.FinalIoU, b.FinalIoU)
	}
}

// TestRunRefusesWhatItCannotRun: a configuration the search service would
// refuse is an error naming the value, before Stage 1 trains anything — not
// a panic in an evaluator, a network with no slots, every candidate scored
// zero, or a search with fewer poolings than asked.
func TestRunRefusesWhatItCannotRun(t *testing.T) {
	for _, c := range []struct {
		name, want string
		mut        func(*FlowConfig)
	}{
		{"one training sample", "val_n 0", func(f *FlowConfig) { f.TrainN, f.ValN = 1, 0 }},
		{"no iterations", "iterations 0", func(f *FlowConfig) { f.Search.Iterations = 0 }},
		{"no particles", "per_group 0", func(f *FlowConfig) { f.Search.PerGroup = 0 }},
		{"17 slots", "slots 17", func(f *FlowConfig) { f.Search.Slots = 17 }},
		{"5 pools in 4 slots", "pools 5", func(f *FlowConfig) { f.Search.Slots, f.Search.Pools = 4, 5 }},
	} {
		cfg := DefaultFlowConfig()
		c.mut(&cfg)
		cfg.Log = func(format string, _ ...any) { t.Fatalf("%s: the flow ran (%q)", c.name, format) }
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
}
