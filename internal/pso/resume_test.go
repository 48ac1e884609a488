package pso

// Tests for the two load-bearing properties of the parallel search loop:
// the trajectory is bitwise identical at every worker count, and a search
// killed after any completed iteration resumes from its checkpoint into
// the bitwise-identical trajectory of an uninterrupted run.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// jitterEval is a deterministic evaluator whose per-particle wall time
// varies with the genome, so concurrent workers finish out of submission
// order — the scenario the fixed-order reduction must be immune to. It is
// quant-aware so every Particle field (including QuantAcc) is finite and
// whole Results can be compared with reflect.DeepEqual.
type jitterEval struct{}

func (jitterEval) Accuracy(n Network, epochs int) float64 {
	var d float64
	for i, c := range n.Channels {
		diff := float64(c - 16*(i+1))
		d += diff * diff
	}
	return 1 / (1 + d/2000)
}

func (e jitterEval) QuantAccuracy(n Network, epochs int) float64 {
	time.Sleep(time.Duration(n.Channels[0]%7) * time.Millisecond)
	return 0.9 * e.Accuracy(n, epochs)
}

func (jitterEval) Latency(n Network) map[string]float64 {
	var mass float64
	for _, c := range n.Channels {
		mass += float64(c)
	}
	return map[string]float64{PlatformFPGA: mass / 10, PlatformGPU: mass / 40}
}

func determinismConfig(seed int64) Config {
	return Config{
		Groups: 2, PerGroup: 5, Iterations: 6,
		Slots: 4, Pools: 2,
		ChannelMin: 4, ChannelMax: 96,
		Alpha:    0.01,
		Gamma:    0.5,
		Beta:     map[string]float64{PlatformFPGA: 2, PlatformGPU: 1},
		TargetMS: map[string]float64{PlatformFPGA: 30, PlatformGPU: 10},
		Seed:     seed,
	}
}

// requireSameResult compares two search results bitwise: identical history
// floats, identical best genome and fitness, identical group bests.
func requireSameResult(t *testing.T, a, b Result) {
	t.Helper()
	if !reflect.DeepEqual(a.History, b.History) {
		t.Fatalf("histories differ:\n  %v\n  %v", a.History, b.History)
	}
	if !reflect.DeepEqual(a.Best, b.Best) {
		t.Fatalf("bests differ:\n  %+v\n  %+v", a.Best, b.Best)
	}
	if !reflect.DeepEqual(a.GroupBest, b.GroupBest) {
		t.Fatalf("group bests differ:\n  %+v\n  %+v", a.GroupBest, b.GroupBest)
	}
}

// TestSearchParallelismInvariance: the same seed must produce the bitwise
// identical trajectory whether particles are evaluated serially or on
// eight workers racing each other.
func TestSearchParallelismInvariance(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		serial := determinismConfig(seed)
		serial.Workers = 1
		wide := determinismConfig(seed)
		wide.Workers = 8
		a, err := SearchFrom(serial, jitterEval{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := SearchFrom(wide, jitterEval{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, a, b)
	}
}

// TestSearchResumeBitwiseIdentical simulates a crash: the first run is
// killed (its save hook returns an error) after three completed
// iterations, having persisted a checkpoint to disk. A fresh SearchFrom
// loads that file and must finish with the bitwise-identical result of a
// run that was never interrupted.
func TestSearchResumeBitwiseIdentical(t *testing.T) {
	cfg := determinismConfig(7)
	cfg.Workers = 4
	ref, err := SearchFrom(cfg, jitterEval{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "search.ckpt")
	killed := errors.New("killed")
	_, err = SearchFrom(cfg, jitterEval{}, nil, func(ck Checkpoint) error {
		if err := ck.Save(path); err != nil {
			return err
		}
		if ck.Iter == 3 {
			return killed
		}
		return nil
	})
	if !errors.Is(err, killed) {
		t.Fatalf("kill hook error did not propagate: %v", err)
	}

	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Iter != 3 || len(ck.History) != 3 {
		t.Fatalf("checkpoint at iter %d with %d history entries", ck.Iter, len(ck.History))
	}
	resumed, err := SearchFrom(cfg, jitterEval{}, &ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, resumed)
}

// TestSearchResumeEveryIteration resumes from each checkpoint of a run in
// turn — the restart point must not matter.
func TestSearchResumeEveryIteration(t *testing.T) {
	cfg := determinismConfig(9)
	var cks []Checkpoint
	ref, err := SearchFrom(cfg, jitterEval{}, nil, func(ck Checkpoint) error {
		cks = append(cks, ck)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != cfg.Iterations {
		t.Fatalf("got %d checkpoints, want %d", len(cks), cfg.Iterations)
	}
	for i := range cks {
		resumed, err := SearchFrom(cfg, jitterEval{}, &cks[i], nil)
		if err != nil {
			t.Fatalf("resume from iteration %d: %v", cks[i].Iter, err)
		}
		requireSameResult(t, ref, resumed)
	}
	// Resuming from the final checkpoint runs zero iterations and returns
	// the finished result as-is.
	if cks[len(cks)-1].Iter != cfg.Iterations {
		t.Fatal("last checkpoint must mark the search complete")
	}
}

// TestSearchFromRejectsForeignCheckpoint: any trajectory-determining
// config change invalidates a checkpoint.
func TestSearchFromRejectsForeignCheckpoint(t *testing.T) {
	cfg := determinismConfig(11)
	var ck Checkpoint
	if _, err := SearchFrom(cfg, jitterEval{}, nil, func(c Checkpoint) error {
		ck = c
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*Config){
		"seed":  func(c *Config) { c.Seed++ },
		"alpha": func(c *Config) { c.Alpha *= 2 },
		"gamma": func(c *Config) { c.Gamma = 0 },
		"beta":  func(c *Config) { c.Beta = map[string]float64{PlatformFPGA: 9} },
		"slots": func(c *Config) { c.Slots++ },
	}
	for name, mut := range mutations {
		bad := determinismConfig(11)
		mut(&bad)
		if _, err := SearchFrom(bad, jitterEval{}, &ck, nil); err == nil {
			t.Fatalf("%s change accepted a foreign checkpoint", name)
		}
	}
	// Workers is a throughput knob, not part of the trajectory: changing it
	// must NOT invalidate the checkpoint.
	fine := determinismConfig(11)
	fine.Workers = 3
	if _, err := SearchFrom(fine, jitterEval{}, &ck, nil); err != nil {
		t.Fatalf("worker-count change rejected the checkpoint: %v", err)
	}
}

// fuzzConfig is a 2×2 search small enough to resume thousands of times.
func fuzzConfig() Config {
	return Config{
		Groups: 2, PerGroup: 2, Iterations: 3,
		Slots: 3, Pools: 2,
		ChannelMin: 4, ChannelMax: 32,
		Beta:     map[string]float64{PlatformFPGA: 1},
		TargetMS: map[string]float64{PlatformFPGA: 5},
		Seed:     3,
		Workers:  1,
	}
}

// fuzzEval is a tiny deterministic evaluator that reads every channel, and
// snapshots and restores its state the way the engine evaluator does.
type fuzzEval struct{}

func (fuzzEval) Accuracy(n Network, _ int) float64 {
	var d float64
	for i, c := range n.Channels {
		d += math.Abs(float64(c - 8*(i+1)))
	}
	return 1 / (1 + d/50)
}

func (fuzzEval) Latency(n Network) map[string]float64 {
	return map[string]float64{PlatformFPGA: float64(len(n.PoolPos)) + float64(n.Channels[len(n.Channels)-1])/8}
}

func (fuzzEval) SnapshotState() ([]byte, error) { return new(EngineEvaluator).SnapshotState() }

func (fuzzEval) RestoreState(data []byte) error { return new(EngineEvaluator).RestoreState(data) }

// fuzzCheckpoint is the checkpoint fuzzConfig's search takes after its first
// iteration.
func fuzzCheckpoint(t testing.TB) Checkpoint {
	var first Checkpoint
	if _, err := SearchFrom(fuzzConfig(), fuzzEval{}, nil, func(ck Checkpoint) error {
		if ck.Iter == 1 {
			first = ck
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return first
}

func gobBytes(t testing.TB, ck Checkpoint) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSearchFromRejectsMalformedCheckpoint: a checkpoint file is input, and
// the service resumes any it finds. One whose networks the search could not
// have produced is an error from SearchFrom, not a panic in it.
func TestSearchFromRejectsMalformedCheckpoint(t *testing.T) {
	ck := fuzzCheckpoint(t)
	if _, err := SearchFrom(fuzzConfig(), fuzzEval{}, &ck, nil); err != nil {
		t.Fatalf("the checkpoint as taken: %v", err)
	}
	for name, mut := range map[string]func(*Checkpoint){
		"group 0 holds one network":    func(ck *Checkpoint) { ck.Pop[0] = ck.Pop[0][:1] },
		"group 1 holds three":          func(ck *Checkpoint) { ck.Pop[1] = append(ck.Pop[1], ck.Pop[1][0]) },
		"a genome one slot short":      func(ck *Checkpoint) { ck.Pop[1][1].Channels = ck.Pop[1][1].Channels[:2] },
		"a genome with no poolings":    func(ck *Checkpoint) { ck.Pop[0][1].PoolPos = nil },
		"a pooling past the last slot": func(ck *Checkpoint) { ck.Pop[0][0].PoolPos = []int{0, 3} },
		"zero channels":                func(ck *Checkpoint) { ck.Pop[0][0].Channels[2] = 0 },
		"another group's bundle":       func(ck *Checkpoint) { ck.Pop[1][0].BundleType = 0 },
		"a short group best":           func(ck *Checkpoint) { ck.GroupBest[0].Net.Channels = []int{8} },
		"a global best of group 7":     func(ck *Checkpoint) { ck.Best.Net.BundleType = 7 },
	} {
		ck := fuzzCheckpoint(t)
		mut(&ck)
		if _, err := SearchFrom(fuzzConfig(), fuzzEval{}, &ck, nil); err == nil {
			t.Errorf("%s: resumed without an error", name)
		}
	}
}

// FuzzSearchFromCheckpoint: whatever bytes sit in a checkpoint file, loading
// and resuming from it returns an error or a result, never panics.
func FuzzSearchFromCheckpoint(f *testing.F) {
	ck := fuzzCheckpoint(f)
	valid := gobBytes(f, ck)
	f.Add(valid)
	short := fuzzCheckpoint(f)
	short.Pop[0] = short.Pop[0][:1]
	f.Add(gobBytes(f, short))
	f.Add(valid[:len(valid)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "job.ckpt")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			return
		}
		_, _ = SearchFrom(fuzzConfig(), fuzzEval{}, &ck, nil) // an error is a refusal, which is fine
	})
}

// TestCheckpointPreservesInfinities: gob (unlike JSON) must round-trip the
// ±Inf sentinel fitness of never-evaluated bests exactly.
func TestCheckpointPreservesInfinities(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inf.ckpt")
	ck := Checkpoint{
		Format:     checkpointFormat,
		ConfigHash: "x",
		Pop:        [][]Network{{{BundleType: 1, Channels: []int{4}, PoolPos: []int{0}}}},
		Best:       Particle{Fit: math.Inf(-1), QuantAcc: math.NaN()},
		GroupBest:  []Particle{{Fit: math.Inf(-1)}},
	}
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.Best.Fit, -1) || !math.IsInf(got.GroupBest[0].Fit, -1) {
		t.Fatalf("infinities lost: %v %v", got.Best.Fit, got.GroupBest[0].Fit)
	}
	if !math.IsNaN(got.Best.QuantAcc) {
		t.Fatalf("NaN lost: %v", got.Best.QuantAcc)
	}
}

// TestFitnessQQuantDrop pins the quantization-drop term: only a drop is
// penalized, scaled by Gamma, and NaN (unmeasured) disables it.
func TestFitnessQQuantDrop(t *testing.T) {
	cfg := determinismConfig(1)
	lat := map[string]float64{PlatformFPGA: 30, PlatformGPU: 10} // on target
	if got, want := cfg.FitnessQ(0.8, 0.7, lat), 0.8-0.5*0.1; math.Abs(got-want) > 1e-12 {
		t.Fatalf("drop penalty: got %v want %v", got, want)
	}
	if got := cfg.FitnessQ(0.8, 0.9, lat); got != 0.8 {
		t.Fatalf("quant improvement must not be rewarded: %v", got)
	}
	if got := cfg.FitnessQ(0.8, math.NaN(), lat); got != 0.8 {
		t.Fatalf("unmeasured quant accuracy must be free: %v", got)
	}
	cfg.Gamma = 0
	if got := cfg.FitnessQ(0.8, 0.1, lat); got != 0.8 {
		t.Fatalf("zero Gamma must disable the term: %v", got)
	}
}

// cursedEval is quadEvaluator with a defect: from iteration 1 on, evaluating
// any particle of group 1 panics, each with a text of its own.
type cursedEval struct{ quadEvaluator }

func (c cursedEval) Accuracy(n Network, epochs int) float64 {
	if n.BundleType == 1 && epochs > epochsAt(0) {
		panic("cursed " + n.String())
	}
	return c.quadEvaluator.Accuracy(n, epochs)
}

// TestSearchReportsPanickingParticle: a particle whose evaluation panics fails
// the search with an error, not the process. The error names the first failed
// particle in (group, index) order and its panic, whichever worker met a
// failure first, and the failed iteration writes no checkpoint.
func TestSearchReportsPanickingParticle(t *testing.T) {
	eval := cursedEval{quadEvaluator{idealCh: []int{16, 32, 64, 96}, idealPool: map[int]bool{0: true, 2: true}}}
	var msgs []string
	for _, workers := range []int{1, 6} {
		cfg := testConfig(9)
		cfg.Workers = workers
		var saved []int
		_, err := SearchFrom(cfg, eval, nil, func(ck Checkpoint) error {
			saved = append(saved, ck.Iter)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "particle 0 of group 1: panic: cursed ") {
			t.Fatalf("%d workers: err %v, want particle 0 of group 1's panic", workers, err)
		}
		if len(saved) != 1 || saved[0] != 1 {
			t.Fatalf("%d workers: checkpoints after iterations %v, want after the first alone", workers, saved)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("one worker reports %q, six %q", msgs[0], msgs[1])
	}
}
