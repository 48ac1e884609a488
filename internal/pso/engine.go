package pso

// EngineEvaluator is Stage 2's evaluator, the design flow's and the search
// service's. Every particle is materialized through internal/modelspec,
// trained and evaluated by the real float32 engine (internal/nn) AND the
// real int8 engine (internal/quant), and its latency map couples the
// analytic FPGA/GPU models (on bundle.Contest) with engine-measured CPU
// costs. Accuracies are cached by architecture and epoch budget; prices are
// not, because a price is a pure function of the architecture (nn.Costs and
// fpga.Simulate, a few milliseconds against a training run's hundreds) and
// recomputes to the same bits.
//
// Measured latency vs determinism. Raw wall-clock is not reproducible —
// it varies with GOMAXPROCS, cache state, and machine load — so it never
// feeds the fitness directly. Instead the fitness latency of the CPU
// engines is deterministic MAC work (the candidate's node table,
// nn.Costs, with no forward) multiplied by EngineFactors: ns/MAC rates
// measured once from real engine runs at job start and persisted in the
// checkpoint. The trajectory is then a pure function of
// (Config, EngineFactors): bitwise identical across worker counts, and
// across kill+resume because the factors ride in the evaluator snapshot.
// Wall-clock remains available as telemetry through Config.EvalObserver.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skynet/internal/bundle"
	"skynet/internal/dataset"
	"skynet/internal/detect"
	"skynet/internal/modelspec"
	"skynet/internal/nn"
	"skynet/internal/quant"
	"skynet/internal/tensor"
)

// Platform keys of EngineEvaluator.Latency: the analytic FPGA and GPU
// models, and the CPU engines priced by the calibrated factors. Config.Beta
// selects which platforms penalize the fitness; unlisted keys (the CPUs,
// in the design flow) carry zero weight.
const (
	PlatformFPGA     = "fpga"
	PlatformGPU      = "gpu"
	PlatformCPUFloat = "cpu-f32"
	PlatformCPUInt8  = "cpu-i8"
)

// EngineFactors are the calibrated engine costs in nanoseconds per MAC.
// They are an explicit input to the search trajectory: the evaluator
// measures them once (or they are pinned for cross-machine
// reproducibility) and they persist in every checkpoint.
type EngineFactors struct {
	Float32NSPerMAC float64 `json:"float32_ns_per_mac"`
	Int8NSPerMAC    float64 `json:"int8_ns_per_mac"`
}

// Zero reports whether the factors are uncalibrated.
func (f EngineFactors) Zero() bool { return f.Float32NSPerMAC == 0 && f.Int8NSPerMAC == 0 }

// AccRecord is the cached accuracy outcome of one (architecture, epochs)
// evaluation: the float32 engine's validation IoU and the int8 engine's.
type AccRecord struct {
	FloatIoU float64
	Int8IoU  float64
}

// accKey keys the accuracy cache: epochs matters because the fast-training
// budget grows per iteration and changes the reachable accuracy.
type accKey struct {
	Hash   string
	Epochs int
}

// calibN is how many validation samples calibrate each candidate's int8
// export.
const calibN = 4

// EngineEvaluator implements QuantAwareEvaluator and StateCarrier. Safe
// for concurrent use by Search's worker pool: accuracies are cached by
// canonical architecture hash (modelspec.ArchHash), and concurrent misses
// on the same key compute the same deterministic record twice rather than
// blocking each other.
type EngineEvaluator struct {
	// Gen supplies the synthetic dataset; TrainN/ValN the split sizes (the
	// first calibN validation samples calibrate quant.Export).
	Gen          *dataset.Generator
	TrainN, ValN int
	BatchSize    int
	// Bundles maps a genome's BundleType (its group) to the bundle.ByID
	// enumeration ID the group replicates; nil maps group i to Bundle i.
	Bundles []int
	// Seed feeds every candidate's weight-initialization stream (the
	// genome itself differentiates the architectures).
	Seed int64
	// Factors are the calibrated engine costs. Leave zero to measure them
	// on first use; set explicitly to pin a trajectory across machines.
	Factors EngineFactors

	mu   sync.Mutex
	accs map[accKey]AccRecord

	hits, misses atomic.Int64

	once       sync.Once
	train, val []detect.Sample
	calib      []*tensor.Tensor
}

func (e *EngineEvaluator) ensure() {
	e.once.Do(func() {
		if e.BatchSize <= 0 {
			e.BatchSize = 8
		}
		e.train = e.Gen.DetectionSet(e.TrainN)
		e.val = e.Gen.DetectionSet(e.ValN)
		x, _ := detect.Batch(e.val, 0, min(calibN, len(e.val)))
		e.calib = []*tensor.Tensor{x}
		if e.Factors.Zero() {
			e.Factors = e.measureFactors(3)
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.accs == nil {
			e.accs = map[accKey]AccRecord{}
		}
	})
}

// specFor lifts a search genome into the self-describing modelspec form —
// the same lowering a persisted winner reloads through — with the Bundle
// its group replicates.
func (e *EngineEvaluator) specFor(n Network) modelspec.Spec {
	id := n.BundleType
	if e.Bundles != nil {
		id = e.Bundles[id]
	}
	return modelspec.SearchSpec(id, n.Channels, n.PoolPos, e.Seed)
}

// Accuracy implements Evaluator with the real float32 engine.
func (e *EngineEvaluator) Accuracy(n Network, epochs int) float64 {
	return e.accuracy(n, epochs).FloatIoU
}

// QuantAccuracy implements QuantAwareEvaluator with the real int8 engine.
func (e *EngineEvaluator) QuantAccuracy(n Network, epochs int) float64 {
	return e.accuracy(n, epochs).Int8IoU
}

func (e *EngineEvaluator) accuracy(n Network, epochs int) AccRecord {
	e.ensure()
	key := accKey{Hash: modelspec.ArchHash(e.specFor(n)), Epochs: epochs}
	e.mu.Lock()
	rec, ok := e.accs[key]
	e.mu.Unlock()
	if ok {
		e.hits.Add(1)
		return rec
	}
	e.misses.Add(1)
	rec = e.evalAccuracy(n, epochs)
	e.mu.Lock()
	e.accs[key] = rec
	e.mu.Unlock()
	return rec
}

// evalAccuracy trains the candidate and scores it on both engines.
func (e *EngineEvaluator) evalAccuracy(n Network, epochs int) AccRecord {
	g, head, err := e.specFor(n).Build()
	if err != nil || head == nil {
		return AccRecord{}
	}
	rec := AccRecord{FloatIoU: bundle.FastTrain(g, head, e.train, e.val, epochs, e.BatchSize)}
	if qm, qerr := quant.Export(g, e.calib, quant.ExportConfig{}); qerr == nil {
		rec.Int8IoU = detect.MeanIoU(qm, head, e.val, e.BatchSize)
	}
	return rec
}

// Latency implements Evaluator: the analytic FPGA and GPU models plus the
// two CPU engines priced as deterministic MAC work × calibrated factors.
func (e *EngineEvaluator) Latency(n Network) map[string]float64 {
	e.ensure()
	p := e.priceOf(n)
	e.mu.Lock()
	f := e.Factors
	e.mu.Unlock()
	macs := float64(p.MACs)
	return map[string]float64{
		PlatformFPGA:     p.Report.LatencyS * 1e3,
		PlatformGPU:      p.GPUms,
		PlatformCPUFloat: macs * f.Float32NSPerMAC / 1e6,
		PlatformCPUInt8:  macs * f.Int8NSPerMAC / 1e6,
	}
}

// priceOf prices the untrained candidate, zero when it cannot be built:
// MAC counts and the platform models depend only on the architecture.
func (e *EngineEvaluator) priceOf(n Network) bundle.Price {
	g, _, err := e.specFor(n).Build()
	if err != nil {
		return bundle.Price{}
	}
	return e.price(g)
}

// price prices g on the contest target at the evaluation shape.
func (e *EngineEvaluator) price(g *nn.Graph) bundle.Price {
	cfg := e.Gen.Config()
	return bundle.Contest.Price(g, []int{1, 3, cfg.H, cfg.W})
}

// CacheStats returns the accuracy cache's hit/miss counters.
func (e *EngineEvaluator) CacheStats() (hits, misses int64) {
	return e.hits.Load(), e.misses.Load()
}

// referenceSpec is the fixed mid-sized candidate the factors calibrate on
// when none are pinned. It names enumeration Bundle 6 directly, not through
// the group map, so every evaluator calibrates on the same network.
func (e *EngineEvaluator) referenceSpec() modelspec.Spec {
	return modelspec.SearchSpec(6, []int{16, 32, 48}, []int{0, 1}, e.Seed)
}

// measureFactors runs both real engines on the reference candidate and
// returns their measured ns/MAC rates: the minimum wall over reps forwards
// (minimum, not mean — calibration wants the engine's clean cost, not
// scheduler noise) divided by the candidate's realized MAC work.
func (e *EngineEvaluator) measureFactors(reps int) EngineFactors {
	g, _, err := e.referenceSpec().Build()
	if err != nil {
		return EngineFactors{Float32NSPerMAC: 1, Int8NSPerMAC: 1}
	}
	p := e.price(g)
	if p.MACs == 0 {
		return EngineFactors{Float32NSPerMAC: 1, Int8NSPerMAC: 1}
	}
	cfg := e.Gen.Config()
	x := tensor.New(1, 3, cfg.H, cfg.W)
	x.RandUniform(rand.New(rand.NewSource(e.Seed)), 0, 1)
	macs := float64(p.MACs)
	f := EngineFactors{Float32NSPerMAC: minWallNS(reps, func() { g.Forward(x, false) }) / macs}
	if qm, qerr := quant.Export(g, []*tensor.Tensor{x}, quant.ExportConfig{}); qerr == nil {
		f.Int8NSPerMAC = minWallNS(reps, func() { qm.Forward(x, false) }) / macs
	} else {
		f.Int8NSPerMAC = f.Float32NSPerMAC
	}
	return f
}

func minWallNS(reps int, run func()) float64 {
	if reps < 1 {
		reps = 1
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		run()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds())
}

// engineState is the gob layout of SnapshotState: the calibrated factors
// and the accuracy cache flattened into a sorted slice for stable bytes. A
// state written when prices were cached too carries a Perfs slice; gob
// skips it, and the prices recompute to the same bits.
type engineState struct {
	Factors EngineFactors
	Accs    []accEntry
}

// accEntry pairs an accuracy-cache key with its record for serialization.
type accEntry struct {
	Key accKey
	Rec AccRecord
}

// SnapshotState implements StateCarrier: the factors plus the accuracy
// cache, so a resumed search replays cached trainings bit-for-bit without
// recomputing (and, critically, prices CPU latency with the original
// run's calibration rather than re-measuring).
func (e *EngineEvaluator) SnapshotState() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := engineState{Factors: e.Factors}
	accKeys := make([]accKey, 0, len(e.accs))
	for k := range e.accs {
		accKeys = append(accKeys, k)
	}
	sort.Slice(accKeys, func(i, j int) bool {
		a, b := accKeys[i], accKeys[j]
		if a.Hash != b.Hash {
			return a.Hash < b.Hash
		}
		return a.Epochs < b.Epochs
	})
	for _, k := range accKeys {
		st.Accs = append(st.Accs, accEntry{Key: k, Rec: e.accs[k]})
	}
	return EncodeState(st)
}

// RestoreState implements StateCarrier.
func (e *EngineEvaluator) RestoreState(data []byte) error {
	var st engineState
	if err := DecodeState(data, &st); err != nil {
		return fmt.Errorf("pso: engine evaluator state: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.Factors = st.Factors
	e.accs = make(map[accKey]AccRecord, len(st.Accs))
	for _, en := range st.Accs {
		e.accs[en.Key] = en.Rec
	}
	return nil
}

var (
	_ QuantAwareEvaluator = (*EngineEvaluator)(nil)
	_ StateCarrier        = (*EngineEvaluator)(nil)
)
