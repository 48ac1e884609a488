package pso

import (
	"math"
	"math/rand"
)

// RandomSearch is the NAS baseline the paper's §2.2 positions PSO against:
// it samples genomes uniformly from the same search space and keeps the
// best, with the identical fitness and per-iteration epoch budget, so the
// two search strategies are comparable at equal evaluation counts.
func RandomSearch(cfg Config, eval Evaluator) Result {
	cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var res Result
	res.Best.Fit = math.Inf(-1)
	res.GroupBest = make([]Particle, cfg.Groups)
	for gi := range res.GroupBest {
		res.GroupBest[gi].Fit = math.Inf(-1)
	}
	for itr := 0; itr < cfg.Iterations; itr++ {
		epochs := cfg.Epochs(itr)
		for gi := 0; gi < cfg.Groups; gi++ {
			for j := 0; j < cfg.PerGroup; j++ {
				n := cfg.randomNetwork(rng, gi)
				acc := eval.Accuracy(n, epochs)
				lat := eval.Latency(n)
				p := Particle{Net: n, Acc: acc, Lat: lat, Fit: cfg.Fitness(acc, lat)}
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
	}
	return res
}
