package pso

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quadEvaluator is a cheap synthetic fitness landscape: accuracy peaks at
// a known channel profile and pooling set, latency grows with total
// channel mass. It lets the search dynamics be tested in milliseconds.
type quadEvaluator struct {
	idealCh   []int
	idealPool map[int]bool
}

func (q quadEvaluator) Accuracy(n Network, epochs int) float64 {
	var d float64
	for i, c := range n.Channels {
		diff := float64(c - q.idealCh[i])
		d += diff * diff
	}
	for _, p := range n.PoolPos {
		if !q.idealPool[p] {
			d += 400
		}
	}
	acc := 1 / (1 + d/2000)
	// More epochs sharpen the estimate slightly (monotone, bounded).
	return acc * (1 - 0.1/float64(epochs+1))
}

func (q quadEvaluator) Latency(n Network) map[string]float64 {
	var mass float64
	for _, c := range n.Channels {
		mass += float64(c)
	}
	return map[string]float64{PlatformFPGA: mass / 10, PlatformGPU: mass / 40}
}

func testConfig(seed int64) Config {
	return Config{
		Groups: 2, PerGroup: 6, Iterations: 12,
		Slots: 4, Pools: 2,
		ChannelMin: 4, ChannelMax: 128,
		Alpha:    0.01,
		Beta:     map[string]float64{PlatformFPGA: 2, PlatformGPU: 1},
		TargetMS: map[string]float64{PlatformFPGA: 40, PlatformGPU: 15},
		Seed:     seed,
	}
}

func TestSearchImprovesFitness(t *testing.T) {
	eval := quadEvaluator{idealCh: []int{16, 32, 64, 96}, idealPool: map[int]bool{0: true, 2: true}}
	res := Search(testConfig(1), eval)
	if len(res.History) != 12 {
		t.Fatalf("history length %d", len(res.History))
	}
	if res.History[len(res.History)-1] <= res.History[0] {
		t.Fatalf("search did not improve: %v -> %v", res.History[0], res.History[len(res.History)-1])
	}
}

// Property (Algorithm 1 invariant): the global best fitness history is
// monotone non-decreasing.
func TestQuickHistoryMonotone(t *testing.T) {
	f := func(seed int64) bool {
		eval := quadEvaluator{idealCh: []int{20, 40, 60, 80}, idealPool: map[int]bool{1: true, 3: true}}
		cfg := testConfig(seed)
		cfg.Iterations = 6
		res := Search(cfg, eval)
		for i := 1; i < len(res.History); i++ {
			if res.History[i] < res.History[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: evolved particles always respect channel bounds and pooling
// validity (unique, sorted, in range).
func TestQuickParticlesStayValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := testConfig(seed)
		cfg.normalize()
		n := cfg.randomNetwork(rng, 0)
		best := cfg.randomNetwork(rng, 0)
		for step := 0; step < 20; step++ {
			n = cfg.evolve(rng, n, best)
			seen := map[int]bool{}
			prev := -1
			for _, p := range n.PoolPos {
				if p < 0 || p >= cfg.Slots || seen[p] || p < prev {
					return false
				}
				seen[p] = true
				prev = p
			}
			for _, c := range n.Channels {
				if c < cfg.ChannelMin || c > cfg.ChannelMax {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupsEvolveIndependently(t *testing.T) {
	eval := quadEvaluator{idealCh: []int{16, 32, 64, 96}, idealPool: map[int]bool{0: true, 2: true}}
	res := Search(testConfig(3), eval)
	if len(res.GroupBest) != 2 {
		t.Fatalf("want 2 group bests, got %d", len(res.GroupBest))
	}
	for gi, p := range res.GroupBest {
		if p.Net.BundleType != gi {
			t.Fatalf("group %d best has bundle type %d", gi, p.Net.BundleType)
		}
	}
	// The global best equals the best group best.
	best := math.Inf(-1)
	for _, p := range res.GroupBest {
		if p.Fit > best {
			best = p.Fit
		}
	}
	if res.Best.Fit != best {
		t.Fatal("global best must be the max over group bests")
	}
}

func TestFitnessPenaltyForm(t *testing.T) {
	cfg := testConfig(4)
	lat := map[string]float64{PlatformFPGA: 60, PlatformGPU: 10}
	// FPGA overshoots by 20ms, GPU undershoots (no penalty).
	got := cfg.Fitness(0.7, lat)
	want := 0.7 - 0.01*(2*20+1*0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("fitness %v, want %v", got, want)
	}
	// Literal form adds the absolute deviations with a positive sign.
	cfg.PaperLiteralFitness = true
	gotLit := cfg.Fitness(0.7, lat)
	wantLit := 0.7 + 0.01*(2*20+1*5)
	if math.Abs(gotLit-wantLit) > 1e-12 {
		t.Fatalf("literal fitness %v, want %v", gotLit, wantLit)
	}
}

func TestFitnessPrioritizesFPGA(t *testing.T) {
	// With βfpga > βgpu, the same overshoot hurts more on the FPGA.
	cfg := testConfig(5)
	over := func(h string) float64 {
		lat := map[string]float64{PlatformFPGA: 40, PlatformGPU: 15}
		lat[h] += 10
		return cfg.Fitness(0.5, lat)
	}
	if over(PlatformFPGA) >= over(PlatformGPU) {
		t.Fatal("FPGA overshoot must be penalized harder than GPU overshoot")
	}
}

func TestNetworkCloneIndependent(t *testing.T) {
	n := Network{BundleType: 1, Channels: []int{1, 2}, PoolPos: []int{0}}
	c := n.Clone()
	c.Channels[0] = 99
	c.PoolPos[0] = 1
	if n.Channels[0] == 99 || n.PoolPos[0] == 1 {
		t.Fatal("Clone must deep-copy")
	}
	if n.String() == "" {
		t.Fatal("String must render")
	}
}

// groupedEval gives each group a different ideal genome, so dragging
// particles toward another group's best (the GlobalEvolution ablation)
// hurts. This measures the paper's rationale for group-based evolution.
type groupedEval struct{}

func (groupedEval) Accuracy(n Network, epochs int) float64 {
	ideal := 20.0
	if n.BundleType == 1 {
		ideal = 120.0
	}
	var d float64
	for _, c := range n.Channels {
		diff := float64(c) - ideal
		d += diff * diff
	}
	return 1 / (1 + d/4000)
}

func (groupedEval) Latency(n Network) map[string]float64 {
	return map[string]float64{PlatformFPGA: 10}
}

func TestGroupBasedBeatsGlobalEvolution(t *testing.T) {
	base := testConfig(11)
	base.Iterations = 10
	base.PerGroup = 5
	run := func(global bool) float64 {
		cfg := base
		cfg.GlobalEvolution = global
		res := Search(cfg, groupedEval{})
		// Stability metric: the worse group's final best — global
		// evolution sacrifices one group to the other's optimum.
		worst := res.GroupBest[0].Fit
		if res.GroupBest[1].Fit < worst {
			worst = res.GroupBest[1].Fit
		}
		return worst
	}
	grouped := run(false)
	global := run(true)
	if grouped < global-1e-9 {
		t.Fatalf("group-based evolution (worst-group fit %.4f) should not lose to global (%.4f)",
			grouped, global)
	}
}

func TestRandomSearchBaseline(t *testing.T) {
	eval := quadEvaluator{idealCh: []int{16, 32, 64, 96}, idealPool: map[int]bool{0: true, 2: true}}
	res := RandomSearch(testConfig(20), eval)
	if len(res.History) != 12 {
		t.Fatalf("history %d", len(res.History))
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] < res.History[i-1] {
			t.Fatal("random-search best must be monotone")
		}
	}
	if res.Best.Fit <= 0 {
		t.Fatalf("best fitness %v", res.Best.Fit)
	}
}

// TestPSOBeatsRandomSearch is the Stage-2 ablation: at an equal evaluation
// budget on a landscape with local structure, the swarm's directed updates
// must average at least as good as uniform sampling.
func TestPSOBeatsRandomSearch(t *testing.T) {
	eval := quadEvaluator{idealCh: []int{16, 32, 64, 96}, idealPool: map[int]bool{0: true, 2: true}}
	cfg := testConfig(0)
	cfg.Iterations = 15
	psoMean, randMean := CompareSearchers(cfg, eval, []int64{1, 2, 3, 4, 5})
	if psoMean < randMean {
		t.Fatalf("PSO mean fitness %.4f below random search %.4f", psoMean, randMean)
	}
}

// hostileEval injects NaN/Inf fitness values — the search must survive
// evaluator failures without panicking.
type hostileEval struct{}

func (hostileEval) Accuracy(n Network, epochs int) float64 {
	switch n.Channels[0] % 3 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(-1)
	}
	return 0.5
}

func (hostileEval) Latency(n Network) map[string]float64 {
	return map[string]float64{PlatformFPGA: 10}
}

func TestSearchSurvivesHostileEvaluator(t *testing.T) {
	cfg := testConfig(30)
	cfg.Iterations = 4
	res := Search(cfg, hostileEval{})
	// The best must be a finite value when any particle produced one.
	if math.IsNaN(res.Best.Fit) {
		t.Fatal("NaN fitness leaked into the global best")
	}
	if len(res.History) != 4 {
		t.Fatalf("history %d", len(res.History))
	}
}

// TestFitnessTable pins Equation 1 case by case: sign of the penalty,
// α scaling, β weighting, undershoot handling in both forms, and the
// degenerate configurations (zero α, missing β, no latency targets).
func TestFitnessTable(t *testing.T) {
	base := Config{
		Alpha:    0.01,
		Beta:     map[string]float64{PlatformFPGA: 2, PlatformGPU: 1},
		TargetMS: map[string]float64{PlatformFPGA: 40, PlatformGPU: 15},
	}
	cases := []struct {
		name string
		mod  func(*Config)
		acc  float64
		lat  map[string]float64
		want float64
	}{
		{
			name: "on-target latency is free",
			acc:  0.6,
			lat:  map[string]float64{PlatformFPGA: 40, PlatformGPU: 15},
			want: 0.6,
		},
		{
			name: "overshoot subtracts beta-weighted deviation",
			acc:  0.6,
			lat:  map[string]float64{PlatformFPGA: 50, PlatformGPU: 15},
			want: 0.6 - 0.01*2*10,
		},
		{
			name: "undershoot is free in the penalty form",
			acc:  0.6,
			lat:  map[string]float64{PlatformFPGA: 10, PlatformGPU: 1},
			want: 0.6,
		},
		{
			name: "alpha scales the whole penalty",
			mod:  func(c *Config) { c.Alpha = 0.1 },
			acc:  0.6,
			lat:  map[string]float64{PlatformFPGA: 50, PlatformGPU: 15},
			want: 0.6 - 0.1*2*10,
		},
		{
			name: "beta weights platforms independently",
			acc:  0.6,
			lat:  map[string]float64{PlatformFPGA: 45, PlatformGPU: 25},
			want: 0.6 - 0.01*(2*5+1*10),
		},
		{
			name: "zero alpha reduces to accuracy",
			mod:  func(c *Config) { c.Alpha = 0 },
			acc:  0.42,
			lat:  map[string]float64{PlatformFPGA: 400, PlatformGPU: 400},
			want: 0.42,
		},
		{
			name: "platform without a beta entry is unweighted",
			acc:  0.6,
			lat:  map[string]float64{"tpu": 100},
			want: 0.6,
		},
		{
			name: "no latencies at all",
			acc:  0.33,
			lat:  map[string]float64{},
			want: 0.33,
		},
		{
			name: "paper-literal form rewards absolute deviation",
			mod:  func(c *Config) { c.PaperLiteralFitness = true },
			acc:  0.6,
			lat:  map[string]float64{PlatformFPGA: 30, PlatformGPU: 20},
			want: 0.6 + 0.01*(2*10+1*5),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := base
			if c.mod != nil {
				c.mod(&cfg)
			}
			if got := cfg.Fitness(c.acc, c.lat); math.Abs(got-c.want) > 1e-12 {
				t.Fatalf("fitness = %v, want %v", got, c.want)
			}
		})
	}
}

// TestFitnessParetoOrdering: a candidate that Pareto-dominates another
// (accuracy no worse, every latency no worse, at least one strictly
// better) must never score lower under the penalty-form fitness — the
// ordering both Search and the RandomSearch baseline rely on when they
// keep their best particle.
func TestFitnessParetoOrdering(t *testing.T) {
	cfg := testConfig(11)
	cases := []struct {
		name       string
		accA, accB float64
		latA, latB map[string]float64
	}{
		{
			name: "higher accuracy, equal latency",
			accA: 0.8, accB: 0.6,
			latA: map[string]float64{PlatformFPGA: 50, PlatformGPU: 20},
			latB: map[string]float64{PlatformFPGA: 50, PlatformGPU: 20},
		},
		{
			name: "equal accuracy, lower latency",
			accA: 0.6, accB: 0.6,
			latA: map[string]float64{PlatformFPGA: 45, PlatformGPU: 16},
			latB: map[string]float64{PlatformFPGA: 60, PlatformGPU: 30},
		},
		{
			name: "dominates on every axis",
			accA: 0.7, accB: 0.5,
			latA: map[string]float64{PlatformFPGA: 40, PlatformGPU: 15},
			latB: map[string]float64{PlatformFPGA: 80, PlatformGPU: 40},
		},
		{
			name: "dominates below target too",
			accA: 0.7, accB: 0.6,
			latA: map[string]float64{PlatformFPGA: 10, PlatformGPU: 5},
			latB: map[string]float64{PlatformFPGA: 20, PlatformGPU: 10},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fa, fb := cfg.Fitness(c.accA, c.latA), cfg.Fitness(c.accB, c.latB)
			if fa < fb {
				t.Fatalf("dominant candidate scored %v below dominated %v", fa, fb)
			}
		})
	}
}

// scriptedEvaluator maps each genome deterministically to a scripted
// (accuracy, latency) pair keyed by the first channel value.
type scriptedEvaluator struct{}

func (scriptedEvaluator) Accuracy(n Network, _ int) float64 {
	return float64(n.Channels[0]) / 1000
}

func (scriptedEvaluator) Latency(n Network) map[string]float64 {
	return map[string]float64{PlatformFPGA: float64(n.Channels[0])}
}

// TestRandomSearchKeepsArgmaxFitness: the baseline must keep exactly the
// candidate its own fitness ranks highest — the property that makes
// CompareSearchers a fair PSO-vs-random comparison.
func TestRandomSearchKeepsArgmaxFitness(t *testing.T) {
	cfg := testConfig(12)
	cfg.Iterations = 4
	var fits []float64
	cfg.Progress = func(_ int, best Particle) { fits = append(fits, best.Fit) }
	res := RandomSearch(cfg, scriptedEvaluator{})
	want := cfg.Fitness(res.Best.Acc, res.Best.Lat)
	if math.Abs(res.Best.Fit-want) > 1e-12 {
		t.Fatalf("best fitness %v does not re-derive from its own acc/lat (%v)", res.Best.Fit, want)
	}
	for i := 1; i < len(fits); i++ {
		if fits[i] < fits[i-1] {
			t.Fatalf("baseline best regressed at iteration %d: %v -> %v", i, fits[i-1], fits[i])
		}
	}
	if res.Best.Fit != fits[len(fits)-1] {
		t.Fatal("final best must equal the last progress report")
	}
}
