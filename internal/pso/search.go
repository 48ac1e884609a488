package pso

// The parallel, resumable search loop. Three properties are load-bearing
// and documented in DESIGN.md §15:
//
//  1. Parallelism invariance. Particle evaluations run on a bounded worker
//     pool, but results land in an indexed slice and are reduced in fixed
//     particle order, so the trajectory is bitwise identical for every
//     Workers setting and GOMAXPROCS value. Nothing order- or time-
//     dependent feeds the fitness: evaluators must be deterministic per
//     (genome, epochs), and wall-clock is surfaced only through
//     Config.EvalObserver telemetry.
//
//  2. Derived RNG streams. The initial population draws from a stream
//     derived as mix(Seed, -1) and iteration itr's evolution step from
//     mix(Seed, itr), instead of one serial generator threaded through the
//     whole run. A resumed search can therefore reconstruct the exact
//     generator for any iteration without replaying the preceding ones.
//
//  3. Checkpoint completeness. A Checkpoint taken after iteration itr
//     holds everything the remaining iterations read: the evolved
//     population, the bests, the history, and the evaluator's snapshot
//     (calibrated engine factors plus the accuracy cache, for a
//     StateCarrier; prices are recomputed, being pure functions of the
//     architecture). gob is used rather than JSON because fitness values
//     are legitimately ±Inf (unevaluated bests) and float64 bits must
//     round-trip exactly.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"skynet/internal/modelspec"
)

// newRand is the one constructor for all search RNG streams.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// mixSeed derives the seed of an iteration-local RNG stream from the
// search seed (splitmix64 finalizer). Stream -1 is the initial population;
// stream itr ≥ 0 is iteration itr's evolution step.
func mixSeed(seed int64, stream int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(int64(stream)+2)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// checkpointFormat versions the gob stream; bump when its layout changes or
// what it caches changes meaning (2: the engine state's FPGA prices came from
// the one calibrated schedule; the state no longer holds prices, and gob
// skips those a format-2 file still carries).
const checkpointFormat = 2

// Checkpoint is a resumable snapshot of a search, taken after a completed
// iteration. It carries the full loop state: Iter iterations are done,
// Pop has already been evolved for iteration Iter, and EvalState is the
// evaluator's own snapshot when it is a StateCarrier. ConfigHash pins the
// Config the snapshot belongs to; SearchFrom refuses to resume under a
// different one.
type Checkpoint struct {
	Format     int
	ConfigHash string
	Iter       int
	Pop        [][]Network
	Best       Particle
	GroupBest  []Particle
	History    []float64
	EvalState  []byte
}

// Save writes the checkpoint atomically (modelspec.WriteAtomic), so a crash
// mid-write leaves the previous checkpoint intact.
func (ck Checkpoint) Save(path string) error {
	return modelspec.WriteAtomic(path, func(w io.Writer) error { return gob.NewEncoder(w).Encode(ck) })
}

// LoadCheckpoint reads a checkpoint written by Save.
func LoadCheckpoint(path string) (Checkpoint, error) {
	var ck Checkpoint
	f, err := os.Open(path)
	if err != nil {
		return ck, err
	}
	defer f.Close()
	if err := gob.NewDecoder(f).Decode(&ck); err != nil {
		return ck, fmt.Errorf("pso: decoding checkpoint %s: %w", path, err)
	}
	if ck.Format != checkpointFormat {
		return ck, fmt.Errorf("pso: unsupported checkpoint format %d", ck.Format)
	}
	return ck, nil
}

// Digest canonically hashes the trajectory-determining Config fields, the
// value Checkpoint.ConfigHash stores. Workers is deliberately excluded
// (parallelism does not change the trajectory), as are the callback
// fields, Progress and EvalObserver, which are pure telemetry. The epoch
// schedule is fixed (epochsAt), so the digest covers the whole trajectory.
func (c Config) Digest() string {
	c.normalize()
	h := fnv.New64a()
	put := func(format string, args ...any) { _, _ = fmt.Fprintf(h, format, args...) } // hash writes never fail
	put("g%d n%d i%d s%d p%d cmin%d cmax%d ", c.Groups, c.PerGroup, c.Iterations,
		c.Slots, c.Pools, c.ChannelMin, c.ChannelMax)
	put("a%x g%x seed%d lit%t glob%t ", math.Float64bits(c.Alpha),
		math.Float64bits(c.Gamma), c.Seed, c.PaperLiteralFitness, c.GlobalEvolution)
	for _, m := range []map[string]float64{c.Beta, c.TargetMS} {
		ks := make([]string, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			put("%d:%s=%x ", len(k), k, math.Float64bits(m[k]))
		}
		put("| ")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// SearchFrom runs Algorithm 1 with parallel particle evaluation and
// checkpointed resume. A nil ck starts fresh; otherwise the search resumes
// after ck.Iter completed iterations and — given the same Config and a
// deterministic evaluator — produces the bitwise-identical trajectory an
// uninterrupted run would have. When save is non-nil it is called with a
// snapshot after every completed iteration; a save error aborts the search
// and is returned alongside the partial result. SearchFrom is the one entry
// point of Algorithm 1: the design flow, the job service and every test
// search through it.
func SearchFrom(cfg Config, eval Evaluator, ck *Checkpoint, save func(Checkpoint) error) (Result, error) {
	cfg.normalize()
	digest := cfg.Digest()

	var res Result
	if cfg.Pools > cfg.Slots {
		return res, fmt.Errorf("pso: %d pools among %d slots", cfg.Pools, cfg.Slots)
	}
	var pop [][]Network
	start := 0
	if ck == nil {
		rng := newRand(mixSeed(cfg.Seed, -1))
		pop = make([][]Network, cfg.Groups)
		for gi := range pop {
			pop[gi] = make([]Network, cfg.PerGroup)
			for j := range pop[gi] {
				pop[gi][j] = cfg.randomNetwork(rng, gi)
			}
		}
		res.GroupBest = make([]Particle, cfg.Groups)
		for gi := range res.GroupBest {
			res.GroupBest[gi].Fit = math.Inf(-1)
		}
		res.Best.Fit = math.Inf(-1)
	} else {
		if ck.ConfigHash != digest {
			return res, fmt.Errorf("pso: checkpoint config digest %s does not match %s — refusing to resume a different search", ck.ConfigHash, digest)
		}
		if len(ck.Pop) != cfg.Groups || len(ck.GroupBest) != cfg.Groups || ck.Iter != len(ck.History) {
			return res, fmt.Errorf("pso: malformed checkpoint (groups %d/%d, iter %d, history %d)",
				len(ck.Pop), cfg.Groups, ck.Iter, len(ck.History))
		}
		if err := cfg.checkGenomes(ck); err != nil {
			return res, fmt.Errorf("pso: malformed checkpoint: %w", err)
		}
		if sc, ok := eval.(StateCarrier); ok && ck.EvalState != nil {
			if err := sc.RestoreState(ck.EvalState); err != nil {
				return res, fmt.Errorf("pso: restoring evaluator state: %w", err)
			}
		}
		pop = clonePop(ck.Pop)
		res.Best = ck.Best
		res.GroupBest = append([]Particle(nil), ck.GroupBest...)
		res.History = append([]float64(nil), ck.History...)
		start = ck.Iter
	}

	for itr := start; itr < cfg.Iterations; itr++ {
		parts, err := cfg.evaluateAll(pop, eval, epochsAt(itr))
		if err != nil {
			return res, err
		}
		// Fixed-order reduction: particle (gi, j) is folded in before
		// (gi, j+1) regardless of which worker finished first, so ties and
		// float comparisons resolve identically at every worker count.
		for gi := range pop {
			for j := range pop[gi] {
				p := parts[gi*cfg.PerGroup+j]
				if p.Fit > res.GroupBest[gi].Fit {
					res.GroupBest[gi] = p
				}
				if p.Fit > res.Best.Fit {
					res.Best = p
				}
			}
		}
		res.History = append(res.History, res.Best.Fit)
		if cfg.Progress != nil {
			cfg.Progress(itr, res.Best)
		}
		// Velocity calculation and particle update (within groups only,
		// unless the GlobalEvolution ablation is enabled), on iteration
		// itr's own derived RNG stream.
		rng := newRand(mixSeed(cfg.Seed, itr))
		for gi := range pop {
			best := res.GroupBest[gi].Net
			if cfg.GlobalEvolution {
				best = res.Best.Net
			}
			for j := range pop[gi] {
				b := best
				if len(b.Channels) == 0 {
					// No particle of this group (or globally) has produced a
					// finite fitness yet, so there is no best to move toward;
					// evolving toward itself degrades to pure exploration
					// noise instead of indexing an empty genome.
					b = pop[gi][j]
				}
				pop[gi][j] = cfg.evolve(rng, pop[gi][j], b)
			}
		}
		if save != nil {
			snap := Checkpoint{
				Format:     checkpointFormat,
				ConfigHash: digest,
				Iter:       itr + 1,
				Pop:        clonePop(pop),
				Best:       res.Best,
				GroupBest:  append([]Particle(nil), res.GroupBest...),
				History:    append([]float64(nil), res.History...),
			}
			if sc, ok := eval.(StateCarrier); ok {
				state, err := sc.SnapshotState()
				if err != nil {
					return res, fmt.Errorf("pso: snapshotting evaluator state: %w", err)
				}
				snap.EvalState = state
			}
			if err := save(snap); err != nil {
				return res, fmt.Errorf("pso: saving checkpoint after iteration %d: %w", itr, err)
			}
		}
	}
	return res, nil
}

// checkGenomes holds a checkpoint file, which is input, to what the search
// produces: PerGroup valid genomes of the group's Bundle type per group, and
// a valid genome in every best evaluated yet (evolve skips one with none).
func (c Config) checkGenomes(ck *Checkpoint) error {
	for gi, group := range ck.Pop {
		if len(group) != c.PerGroup {
			return fmt.Errorf("group %d holds %d networks, want %d", gi, len(group), c.PerGroup)
		}
		for _, n := range group {
			if !c.validGenome(n, gi, gi) {
				return fmt.Errorf("group %d holds %v", gi, n)
			}
		}
		if n := ck.GroupBest[gi].Net; len(n.Channels) > 0 && !c.validGenome(n, gi, gi) {
			return fmt.Errorf("group %d's best is %v", gi, n)
		}
	}
	if n := ck.Best.Net; len(n.Channels) > 0 && !c.validGenome(n, 0, c.Groups-1) {
		return fmt.Errorf("the global best is %v", n)
	}
	return nil
}

// validGenome reports whether n is a genome the search draws and evolves —
// Slots channel widths in bounds, Pools strictly increasing pool slots — of
// a Bundle type in [lo, hi].
func (c Config) validGenome(n Network, lo, hi int) bool {
	ok := n.BundleType >= lo && n.BundleType <= hi && len(n.Channels) == c.Slots && len(n.PoolPos) == c.Pools
	for _, ch := range n.Channels {
		ok = ok && ch >= c.ChannelMin && ch <= c.ChannelMax
	}
	for i, p := range n.PoolPos {
		ok = ok && p >= 0 && p < c.Slots && (i == 0 || p > n.PoolPos[i-1])
	}
	return ok
}

// evaluateAll trains and measures every particle of the population on a
// bounded worker pool and returns them indexed by gi*PerGroup+j. Results
// carry no ordering information — determinism comes from the caller's
// fixed-order reduction. A particle whose evaluation panics fails the
// iteration, not the process: the error names the first such particle in
// (group, index) order, whichever worker met it first, and its panic.
func (c Config) evaluateAll(pop [][]Network, eval Evaluator, epochs int) ([]Particle, error) {
	type job struct{ gi, j int }
	jobs := make([]job, 0, c.Groups*c.PerGroup)
	for gi := range pop {
		for j := range pop[gi] {
			jobs = append(jobs, job{gi, j})
		}
	}
	parts := make([]Particle, len(jobs))
	failures := make([]any, len(jobs)) // a particle's panic, nil once it is measured
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				failures[idx] = c.measure(&parts[idx], pop[jobs[idx].gi][jobs[idx].j], eval, epochs)
			}
		}()
	}
	for idx := range jobs {
		next <- idx
	}
	close(next)
	wg.Wait()
	for idx, f := range failures {
		if f != nil {
			return nil, fmt.Errorf("pso: evaluating particle %d of group %d: panic: %v", jobs[idx].j, jobs[idx].gi, f)
		}
	}
	return parts, nil
}

// measure trains and measures network n into p. A panic in the evaluator is
// returned, p left unset.
func (c Config) measure(p *Particle, n Network, eval Evaluator, epochs int) (failure any) {
	defer func() { failure = recover() }()
	t0 := time.Now()
	acc := eval.Accuracy(n, epochs)
	quantAcc := math.NaN()
	if qe, ok := eval.(QuantAwareEvaluator); ok {
		quantAcc = qe.QuantAccuracy(n, epochs)
	}
	lat := eval.Latency(n)
	if c.EvalObserver != nil {
		c.EvalObserver(time.Since(t0))
	}
	*p = Particle{Net: n.Clone(), Acc: acc, QuantAcc: quantAcc, Lat: lat, Fit: c.FitnessQ(acc, quantAcc, lat)}
	return nil
}

func clonePop(pop [][]Network) [][]Network {
	out := make([][]Network, len(pop))
	for gi := range pop {
		out[gi] = make([]Network, len(pop[gi]))
		for j := range pop[gi] {
			out[gi][j] = pop[gi][j].Clone()
		}
	}
	return out
}

// EncodeState gob-encodes an evaluator state value for SnapshotState
// implementations; DecodeState is its inverse.
func EncodeState(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeState gob-decodes an evaluator state snapshot into v.
func DecodeState(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
