package pso

// EngineEvaluator tests: real-engine evaluation at tiny shapes, the
// arch-hash accuracy-cache contract, the StateCarrier round-trip, and
// end-to-end measured-fitness search determinism with pinned factors.

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"skynet/internal/bundle"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/modelspec"
	"skynet/internal/nn"
)

func testEngineEvaluator(seed int64) *EngineEvaluator {
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H = 48, 24
	return &EngineEvaluator{
		Gen:    dataset.NewGenerator(cfg),
		TrainN: 8, ValN: 4,
		BatchSize: 4,
		Seed:      seed,
		// Pinned factors: the test asserts trajectories, not wall-clock.
		Factors: EngineFactors{Float32NSPerMAC: 2.5, Int8NSPerMAC: 1.25},
	}
}

func TestEngineEvaluatorMeasuresBothEngines(t *testing.T) {
	ev := testEngineEvaluator(1)
	n := Network{BundleType: 6, Channels: []int{8, 16, 24}, PoolPos: []int{0, 1}}
	acc := ev.Accuracy(n, 2)
	qacc := ev.QuantAccuracy(n, 2)
	if acc < 0 || acc > 1 || qacc < 0 || qacc > 1 {
		t.Fatalf("IoUs out of range: float %v int8 %v", acc, qacc)
	}
	lat := ev.Latency(n)
	for _, k := range []string{PlatformFPGA, PlatformGPU, PlatformCPUFloat, PlatformCPUInt8} {
		if lat[k] <= 0 {
			t.Fatalf("latency[%s] = %v, want > 0", k, lat[k])
		}
	}
	// The pinned factors make the int8 CPU engine exactly 2× cheaper.
	if ratio := lat[PlatformCPUFloat] / lat[PlatformCPUInt8]; math.Abs(ratio-2) > 1e-9 {
		t.Fatalf("cpu f32/i8 ratio %v, want 2 from pinned factors", ratio)
	}
}

func TestEngineEvaluatorCache(t *testing.T) {
	ev := testEngineEvaluator(2)
	n := Network{BundleType: 4, Channels: []int{8, 16}, PoolPos: []int{0}}
	a1 := ev.Accuracy(n, 1)
	_, misses0 := ev.CacheStats()
	a2 := ev.Accuracy(n.Clone(), 1) // same genome, distinct slices
	hits, misses := ev.CacheStats()
	if a1 != a2 {
		t.Fatalf("cache returned different accuracy: %v vs %v", a1, a2)
	}
	if misses != misses0 || hits == 0 {
		t.Fatalf("repeat evaluation missed the cache (hits %d, misses %d -> %d)", hits, misses0, misses)
	}
	// A different epoch budget is a different accuracy question.
	ev.Accuracy(n, 2)
	_, misses2 := ev.CacheStats()
	if misses2 != misses+1 {
		t.Fatalf("epoch change must miss the accuracy cache (misses %d -> %d)", misses, misses2)
	}
}

func TestEngineEvaluatorStateRoundTrip(t *testing.T) {
	ev := testEngineEvaluator(3)
	n := Network{BundleType: 2, Channels: []int{8, 12}, PoolPos: []int{0}}
	wantAcc := ev.Accuracy(n, 1)
	wantLat := ev.Latency(n)
	state, err := ev.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}

	fresh := testEngineEvaluator(3)
	fresh.Factors = EngineFactors{} // would trigger re-measurement…
	if err := fresh.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	if fresh.Factors.Zero() {
		t.Fatal("restore must carry the calibrated factors")
	}
	if got := fresh.Accuracy(n, 1); got != wantAcc {
		t.Fatalf("restored accuracy %v, want %v", got, wantAcc)
	}
	gotLat := fresh.Latency(n)
	for k, v := range wantLat {
		if gotLat[k] != v {
			t.Fatalf("restored latency[%s] = %v, want %v", k, gotLat[k], v)
		}
	}
	hits, misses := fresh.CacheStats()
	if misses != 0 || hits == 0 {
		t.Fatalf("restored evaluator recomputed (hits %d, misses %d)", hits, misses)
	}
}

// TestEngineEvaluatorFoldIsExact pins what the group map means: with
// Bundles listing enumeration IDs out of order, group g's candidate scores
// bit for bit like the network built by hand from Bundle Bundles[g] —
// bundle.Chain on the seeded stream, bundle.FastTrain and
// bundle.Contest.Price — and is cached under the key an unmapped evaluator
// gives genome BundleType Bundles[g]. The factors calibrate on the one
// reference network whatever the map.
func TestEngineEvaluatorFoldIsExact(t *testing.T) {
	ev := testEngineEvaluator(9)
	ev.Bundles = []int{8, 1, 4}
	ev.Factors = EngineFactors{} // calibrate: the reference must not go through the map
	plain := testEngineEvaluator(9)

	gen := dataset.NewGenerator(ev.Gen.Config())
	train, val := gen.DetectionSet(ev.TrainN), gen.DetectionSet(ev.ValN)
	cfg := ev.Gen.Config()
	for group, id := range ev.Bundles {
		n := Network{BundleType: group, Channels: []int{8, 12, 16}, PoolPos: []int{0, 1}}
		acc := ev.Accuracy(n, 1)
		lat := ev.Latency(n)

		b, _ := bundle.ByID(id)
		build := func() *nn.Graph {
			g, _ := bundle.Chain{Bundle: b, Channels: n.Channels, PoolAfter: n.PoolPos, InC: 3, HeadC: 10}.Build(rand.New(rand.NewSource(ev.Seed)))
			return g
		}
		want := bundle.FastTrain(build(), detect.NewHead(nil), train, val, 1, ev.BatchSize)
		if math.Float64bits(acc) != math.Float64bits(want) {
			t.Fatalf("group %d (Bundle %d): Accuracy %v, by hand %v", group, id, acc, want)
		}
		p := bundle.Contest.Price(build(), []int{1, 3, cfg.H, cfg.W})
		if lat[PlatformFPGA] != p.Report.LatencyS*1e3 || lat[PlatformGPU] != p.GPUms {
			t.Fatalf("group %d (Bundle %d): Latency %v, by hand fpga %v gpu %v",
				group, id, lat, p.Report.LatencyS*1e3, p.GPUms)
		}
		unmapped := Network{BundleType: id, Channels: n.Channels, PoolPos: n.PoolPos}
		if modelspec.ArchHash(ev.specFor(n)) != modelspec.ArchHash(plain.specFor(unmapped)) {
			t.Fatalf("group %d: cache key differs from the unmapped genome of Bundle %d", group, id)
		}
	}
	if r := ev.referenceSpec(); r.Bundle != 6 || modelspec.ArchHash(r) != modelspec.ArchHash(plain.referenceSpec()) {
		t.Fatalf("the factors' reference network (Bundle %d) depends on the group map", r.Bundle)
	}
	if ev.Factors.Float32NSPerMAC <= 0 || ev.Factors.Int8NSPerMAC <= 0 {
		t.Fatalf("factors %+v, want positive", ev.Factors)
	}
}

// TestMeasureFactorsPositive runs the real calibration path (real float32
// and int8 forwards) and checks it yields usable rates.
func TestMeasureFactorsPositive(t *testing.T) {
	ev := testEngineEvaluator(4)
	ev.ensure()
	f := ev.measureFactors(2)
	if f.Float32NSPerMAC <= 0 || f.Int8NSPerMAC <= 0 {
		t.Fatalf("factors %+v, want positive", f)
	}
}

// TestMeasuredSearchDeterministic is the tentpole's end-to-end property:
// a fixed-seed search through the real engines (pinned factors) is
// bitwise identical across worker counts AND across kill+resume with the
// evaluator cache riding in the checkpoint.
func TestMeasuredSearchDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("real-engine search in -short mode")
	}
	cfg := Config{
		Groups: 2, PerGroup: 3, Iterations: 3,
		Slots: 3, Pools: 2,
		ChannelMin: 4, ChannelMax: 24,
		Alpha: 0.01,
		Gamma: 0.5,
		Beta: map[string]float64{
			PlatformFPGA: 2, PlatformGPU: 1, PlatformCPUInt8: 1,
		},
		TargetMS: map[string]float64{
			PlatformFPGA: 10, PlatformGPU: 5, PlatformCPUInt8: 50,
		},
		Seed: 5,
	}

	run := func(workers int, ck *Checkpoint, ev *EngineEvaluator, save func(Checkpoint) error) Result {
		c := cfg
		c.Workers = workers
		res, err := SearchFrom(c, ev, ck, save)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	ref := run(1, nil, testEngineEvaluator(5), nil)
	wide := run(4, nil, testEngineEvaluator(5), nil)
	requireSameResult(t, ref, wide)

	// Kill after the first iteration, resume on a fresh evaluator.
	var first Checkpoint
	func() {
		defer func() { recover() }() // the kill below unwinds via panic
		run(2, nil, testEngineEvaluator(5), func(ck Checkpoint) error {
			first = ck
			panic("killed")
		})
	}()
	if first.Iter != 1 {
		t.Fatalf("kill checkpoint at iter %d", first.Iter)
	}
	if first.EvalState == nil {
		t.Fatal("checkpoint must carry the evaluator state")
	}
	fresh := testEngineEvaluator(5)
	fresh.Factors = EngineFactors{} // restored state must supply them
	resumed := run(2, &first, fresh, nil)
	requireSameResult(t, ref, resumed)
}

// TestResumeFromStateWithCachedPrices: a checkpoint written when the
// evaluator cached prices as well carries a Perfs slice in its state. gob
// skips it, the prices are recomputed, and the resumed search is the
// uninterrupted one bit for bit. The stale records are poisoned, so a
// resume that read them would diverge.
func TestResumeFromStateWithCachedPrices(t *testing.T) {
	cfg := Config{
		Groups: 2, PerGroup: 2, Iterations: 2,
		Slots: 3, Pools: 2,
		ChannelMin: 4, ChannelMax: 16,
		Alpha:    0.01,
		Beta:     map[string]float64{PlatformFPGA: 2, PlatformGPU: 1, PlatformCPUInt8: 1},
		TargetMS: map[string]float64{PlatformFPGA: 10, PlatformGPU: 5, PlatformCPUInt8: 50},
		Seed:     11,
	}
	var first Checkpoint
	ref, err := SearchFrom(cfg, testEngineEvaluator(11), nil, func(ck Checkpoint) error {
		if ck.Iter == 1 {
			first = ck
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite the state as the price-caching evaluator wrote it.
	type perfEntry struct {
		Hash string
		Rec  bundle.Price
	}
	type priceCachingState struct {
		Factors EngineFactors
		Accs    []accEntry
		Perfs   []perfEntry
	}
	var st engineState
	if err := DecodeState(first.EvalState, &st); err != nil {
		t.Fatal(err)
	}
	old := priceCachingState{Factors: st.Factors, Accs: st.Accs}
	for _, a := range st.Accs {
		old.Perfs = append(old.Perfs, perfEntry{Hash: a.Key.Hash, Rec: bundle.Price{MACs: 1, GPUms: 1e9}})
	}
	if first.EvalState, err = EncodeState(old); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "job.ckpt")
	if err := first.Save(path); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	fresh := testEngineEvaluator(11)
	fresh.Factors = EngineFactors{} // the restored state must supply them
	resumed, err := SearchFrom(cfg, fresh, &ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, resumed)
}
