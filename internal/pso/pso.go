// Package pso implements Stage 2 of the bottom-up flow: the group-based
// particle swarm optimization of Algorithm 1. Each particle is a candidate
// DNN described by two tunable dimensions — the channel count of every
// Bundle replication (dim1) and the pooling positions between Bundles
// (dim2). Particles built from the same Bundle type form a group and only
// evolve within it (toward their group's best), which keeps evolution
// stable across structurally different Bundles; the global best is tracked
// across groups.
package pso

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Network is one particle's genome: a chain of Slots Bundle replications
// of a given type, with Channels[i] output channels at slot i and 2×2
// poolings after the slots listed in PoolPos.
type Network struct {
	BundleType int
	Channels   []int
	PoolPos    []int // strictly increasing slot indices
}

// Clone deep-copies the network.
func (n Network) Clone() Network {
	return Network{
		BundleType: n.BundleType,
		Channels:   append([]int(nil), n.Channels...),
		PoolPos:    append([]int(nil), n.PoolPos...),
	}
}

// String renders a compact genome description.
func (n Network) String() string {
	return fmt.Sprintf("bundle%d ch%v pools%v", n.BundleType, n.Channels, n.PoolPos)
}

// Evaluator supplies the two halves of the fitness: task accuracy (from
// fast training, with an epoch budget that grows per iteration) and
// estimated latency per target platform.
//
// Search evaluates particles from a bounded worker pool, so an Evaluator
// must be safe for concurrent use and — for the search trajectory to be
// reproducible — must return the same values for the same (genome, epochs)
// pair regardless of evaluation order or timing.
type Evaluator interface {
	// Accuracy trains/evaluates the network for the given epoch budget and
	// returns validation accuracy in [0,1].
	Accuracy(n Network, epochs int) float64
	// Latency estimates per-platform latency in milliseconds.
	Latency(n Network) map[string]float64
}

// QuantAwareEvaluator is an Evaluator that additionally measures the
// accuracy of the int8-quantized network, closing the codesign loop on the
// precision axis: Config.Gamma turns the float→int8 accuracy drop into a
// fitness penalty, so the search avoids architectures that only work in
// float32.
type QuantAwareEvaluator interface {
	Evaluator
	// QuantAccuracy trains the network for the given epoch budget, exports
	// it to int8, and returns the quantized model's validation accuracy.
	QuantAccuracy(n Network, epochs int) float64
}

// StateCarrier is an Evaluator with internal state a resumed search needs
// to replay identically — the engine evaluator's calibrated ns/MAC factors
// and its accuracy cache. SearchFrom snapshots the state into every
// Checkpoint and restores it before resuming.
type StateCarrier interface {
	// SnapshotState serializes the evaluator state.
	SnapshotState() ([]byte, error)
	// RestoreState replaces the evaluator state with a prior snapshot.
	RestoreState(data []byte) error
}

// Config parameterizes the search.
type Config struct {
	// Groups is the number of Bundle types (M in Algorithm 1); PerGroup is
	// the number of networks per group (N).
	Groups, PerGroup int
	Iterations       int
	// Slots is the number of Bundle replications per network; Pools the
	// number of pooling layers to place among them.
	Slots, Pools int
	// Channel bounds for dim1.
	ChannelMin, ChannelMax int
	// Alpha balances accuracy vs latency penalty; Beta weights each
	// platform (the paper sets the FPGA factor larger than the GPU's to
	// prioritize the tighter budget). TargetMS is Req_h of Equation 1.
	Alpha    float64
	Beta     map[string]float64
	TargetMS map[string]float64
	// Gamma weights the quantization-drop penalty when the evaluator is a
	// QuantAwareEvaluator: Gamma × max(0, acc − quantAcc) subtracts from
	// the fitness. Zero disables the term.
	Gamma float64
	Seed  int64
	// Workers bounds the evaluation worker pool; 0 selects GOMAXPROCS.
	// The search trajectory is identical for every worker count (results
	// are reduced in fixed particle order), so Workers is a throughput
	// knob, not a semantic one, and is excluded from the checkpoint
	// config digest.
	Workers int
	// PaperLiteralFitness uses Equation 1 exactly as printed (a positive
	// latency term); the default is the evidently intended penalty form.
	PaperLiteralFitness bool
	// GlobalEvolution is the ablation of the paper's group-based design:
	// particles evolve toward the *global* best instead of their group's
	// best. The paper argues group-based evolution maintains stability
	// because a channel/pooling genome is only meaningful relative to its
	// own Bundle type; this switch lets the claim be measured.
	GlobalEvolution bool
	// Progress, if non-nil, is called after each iteration with the global
	// best fitness.
	Progress func(itr int, best Particle)
	// EvalObserver, if non-nil, receives the wall-clock duration of every
	// particle evaluation. It is telemetry only — wall time never feeds
	// the fitness (see SearchFrom's determinism contract) — and may be
	// called concurrently from the worker pool.
	EvalObserver func(d time.Duration)
}

// Particle is one evaluated network.
type Particle struct {
	Net Network
	Acc float64
	// QuantAcc is the int8-quantized accuracy when the evaluator measures
	// it (QuantAwareEvaluator); NaN otherwise.
	QuantAcc float64
	Lat      map[string]float64
	Fit      float64
}

// Result carries the search outcome.
type Result struct {
	Best    Particle
	History []float64 // global best fitness per iteration
	// GroupBest holds the final best particle of each group.
	GroupBest []Particle
}

// Fitness implements Equation 1. In the penalty form (default) latency
// overshoot beyond the target subtracts from accuracy; the paper-literal
// form adds the absolute deviation term with a positive sign.
//
// The per-platform penalties are summed over sorted hardware keys: float
// addition is not associative, so summing in map-iteration order would
// make Fit differ in the last ulp from run to run, and the search (which
// compares fitness with >) would become nondeterministic under a fixed
// seed.
func (c Config) Fitness(acc float64, lat map[string]float64) float64 {
	hs := make([]string, 0, len(lat))
	for h := range lat {
		hs = append(hs, h)
	}
	sort.Strings(hs)
	var term float64
	for _, h := range hs {
		l := lat[h]
		beta := c.Beta[h]
		dev := math.Abs(l - c.TargetMS[h])
		if !c.PaperLiteralFitness {
			// Penalize only overshoot: being faster than required is fine.
			dev = math.Max(0, l-c.TargetMS[h])
		}
		term += beta * dev
	}
	if c.PaperLiteralFitness {
		return acc + c.Alpha*term
	}
	return acc - c.Alpha*term
}

// FitnessQ extends Fitness with the measured-codesign quantization term:
// when the evaluator reports an int8 accuracy (quantAcc not NaN) and Gamma
// is set, the float→int8 accuracy drop subtracts Gamma-weighted from the
// fitness. Improvements under quantization (quantAcc > acc) are not
// rewarded — the term penalizes fragility, it does not double-count
// accuracy.
func (c Config) FitnessQ(acc, quantAcc float64, lat map[string]float64) float64 {
	f := c.Fitness(acc, lat)
	if c.Gamma != 0 && !math.IsNaN(quantAcc) {
		f -= c.Gamma * math.Max(0, acc-quantAcc)
	}
	return f
}

// epochsAt is the fast-training budget e_itr of iteration itr, which the
// paper grows with itr.
func epochsAt(itr int) int { return 1 + itr }

func (c *Config) normalize() {
	if c.ChannelMin <= 0 {
		c.ChannelMin = 4
	}
	if c.ChannelMax <= c.ChannelMin {
		c.ChannelMax = c.ChannelMin * 16
	}
	if c.Slots <= 0 {
		c.Slots = 6
	}
	if c.Pools <= 0 {
		c.Pools = 3
	}
	if c.Pools > c.Slots {
		c.Pools = c.Slots
	}
}

// randomNetwork draws an initial particle for a group.
func (c Config) randomNetwork(rng *rand.Rand, group int) Network {
	ch := make([]int, c.Slots)
	for i := range ch {
		lo := float64(c.ChannelMin)
		hi := float64(c.ChannelMax)
		// Bias initial widths to grow with depth, like real backbones.
		frac := (float64(i) + 1) / float64(c.Slots)
		mean := lo + frac*(hi-lo)
		v := int(mean * (0.5 + rng.Float64()))
		ch[i] = clampInt(v, c.ChannelMin, c.ChannelMax)
	}
	return Network{BundleType: group, Channels: ch, PoolPos: randomPools(rng, c.Slots, c.Pools)}
}

func randomPools(rng *rand.Rand, slots, pools int) []int {
	perm := rng.Perm(slots)[:pools]
	sort.Ints(perm)
	return perm
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Search runs Algorithm 1 and returns the global best particle plus the
// per-iteration best-fitness history (monotone non-decreasing). It is
// SearchFrom without checkpointing; see there for the evaluation and
// determinism contract.
func Search(cfg Config, eval Evaluator) Result {
	res, err := SearchFrom(cfg, eval, nil, nil)
	if err != nil {
		// Unreachable: SearchFrom only errors on checkpoint validation and
		// save-hook failures, and both are nil here.
		panic(err)
	}
	return res
}

// evolve moves one particle toward its group best: each channel dimension
// advances by a random percentage of its difference to the best, and a
// random subset of differing pooling positions snaps to the best's.
func (c Config) evolve(rng *rand.Rand, n, best Network) Network {
	out := n.Clone()
	for k := range out.Channels {
		diff := best.Channels[k] - out.Channels[k]
		step := int(math.Round(rng.Float64() * float64(diff)))
		// Occasional exploration noise keeps the swarm from collapsing.
		if rng.Float64() < 0.3 {
			step += rng.Intn(2*c.ChannelMin+1) - c.ChannelMin
		}
		out.Channels[k] = clampInt(out.Channels[k]+step, c.ChannelMin, c.ChannelMax)
	}
	if !equalInts(out.PoolPos, best.PoolPos) && rng.Float64() < 0.7 {
		// Move a random number of pool positions toward the group best.
		k := 1 + rng.Intn(len(out.PoolPos))
		merged := append([]int(nil), out.PoolPos...)
		idxs := rng.Perm(len(out.PoolPos))[:k]
		for _, i := range idxs {
			merged[i] = best.PoolPos[i]
		}
		sort.Ints(merged)
		out.PoolPos = dedupePools(merged, c.Slots, rng)
	} else if rng.Float64() < 0.2 {
		out.PoolPos = randomPools(rng, c.Slots, c.Pools)
	}
	return out
}

// dedupePools repairs a pooling assignment after mixing: positions must be
// unique and within range; collisions re-randomize.
func dedupePools(pools []int, slots int, rng *rand.Rand) []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range pools {
		p = clampInt(p, 0, slots-1)
		for seen[p] {
			p = rng.Intn(slots)
		}
		seen[p] = true
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
