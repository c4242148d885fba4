// Package montecarlo cross-validates the paper's analytic §4 model by
// direct stochastic simulation in virtual time: checkpoint intervals are
// attempted against exponentially-distributed failures, failed attempts
// pay the observed time-to-failure plus a recovery retry, and the sampled
// mean interval time Γ̂ (and overhead ratio r̂) are compared against the
// closed forms. This is the "experiment" the paper's evaluation implies
// but does not run — it gives the figures an empirical backbone.
package montecarlo

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/markov"
	"repro/internal/par"
)

// maxFeasibleHardness bounds λ(T+R+L): beyond it, the expected number of
// retry attempts per interval (e^{λ(T+R+L)}) makes simulation — and the
// modeled system — effectively non-terminating.
const maxFeasibleHardness = 15.0

// shardTrials is the fixed shard size for parallel simulation. Sharding is
// a function of Trials alone — never of Workers — so the trial→RNG-stream
// assignment, and therefore every bit of the result, is identical for any
// worker count. Workers only decides how many shards run at once.
const shardTrials = 8192

// Config controls a simulation.
type Config struct {
	Params markov.Params
	Trials int   // number of simulated intervals
	Seed   int64 // deterministic randomness
	// Workers bounds the goroutines simulating shards: 0 means
	// runtime.GOMAXPROCS(0), 1 is fully serial, negative is rejected with a
	// typed error (par.InvalidWorkersError). The estimate is bit-identical
	// for every legal value — see EXPERIMENTS.md.
	Workers int
}

// Estimate is a sampled statistic with its standard error.
type Estimate struct {
	Mean   float64
	StdErr float64
	Trials int
}

// String renders "mean ± stderr".
func (e Estimate) String() string {
	return fmt.Sprintf("%.6g ± %.2g (n=%d)", e.Mean, e.StdErr, e.Trials)
}

// moments is a per-shard (n, Σx, Σx²) accumulator. Merging two is exact
// integer addition on n and float addition on the sums; the merge ORDER is
// what must stay fixed for bit-identical results, and mergeMoments pins it.
type moments struct {
	n          int
	sum, sumSq float64
}

func (a moments) merge(b moments) moments {
	return moments{n: a.n + b.n, sum: a.sum + b.sum, sumSq: a.sumSq + b.sumSq}
}

// mergeMoments folds ordered shard moments pairwise: (0,1), (2,3), … then
// the same over the halved list, a fixed binary reduction tree. The tree
// shape depends only on the shard count, never on which worker finished
// first, so float summation order — and the resulting Estimate — is
// bit-identical for any worker count.
func mergeMoments(ms []moments) moments {
	if len(ms) == 0 {
		return moments{}
	}
	for len(ms) > 1 {
		half := ms[: (len(ms)+1)/2 : (len(ms)+1)/2]
		for i := 0; i < len(half); i++ {
			lo, hi := 2*i, 2*i+1
			if hi < len(ms) {
				half[i] = ms[lo].merge(ms[hi])
			} else {
				half[i] = ms[lo]
			}
		}
		ms = half
	}
	return ms[0]
}

// splitmix64 is the SplitMix64 output mixer: a bijective avalanche on a
// 64-bit counter stream, the standard way to expand one user seed into
// statistically independent per-shard seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shardSeed derives shard s's RNG seed from the config seed. Distinct
// shards of one run get decorrelated streams; the same (Seed, shard) pair
// always maps to the same stream regardless of Trials or Workers.
func shardSeed(seed int64, shard int) int64 {
	return int64(splitmix64(uint64(seed) ^ splitmix64(uint64(shard))))
}

// simulateShard runs `trials` Figure 7 interval trials on one private RNG
// stream and returns their raw moments.
func simulateShard(p markov.Params, trials int, seed int64) moments {
	r := rand.New(rand.NewSource(seed))
	first := p.T + p.O
	retry := p.T + p.R + p.L
	var m moments
	for trial := 0; trial < trials; trial++ {
		total := 0.0
		// First attempt.
		need := first
		for {
			ttf := r.ExpFloat64() / p.Lambda
			if ttf >= need {
				total += need
				break
			}
			total += ttf
			need = retry
		}
		m.n++
		m.sum += total
		m.sumSq += total * total
	}
	return m
}

// SimulateGamma samples the expected execution time of one checkpoint
// interval under the Figure 7 dynamics:
//
//   - attempt the interval (duration T+O); an exponential failure inside
//     it costs the time-to-failure and moves to recovery;
//   - each recovery retry needs T+R+L failure-free; a failure inside it
//     costs its time-to-failure and retries.
//
// Trials are sharded into fixed-size blocks with per-shard seeds derived
// from Config.Seed by a SplitMix64 mixer and simulated on up to
// Config.Workers goroutines; shard moments merge in a fixed pairwise tree,
// so the returned Estimate is bit-identical for every worker count
// (including 1).
func SimulateGamma(cfg Config) (Estimate, error) {
	p := cfg.Params
	if err := p.Validate(); err != nil {
		return Estimate{}, err
	}
	if cfg.Trials <= 0 {
		return Estimate{}, fmt.Errorf("montecarlo: Trials must be positive, got %d", cfg.Trials)
	}
	workers, err := par.Workers(cfg.Workers)
	if err != nil {
		return Estimate{}, err
	}
	retry := p.T + p.R + p.L
	// An interval completes failure-free with probability e^{-λ·retry}, so
	// a trial needs ~e^{λ·retry} attempts on average. Past ~15 the real
	// system would effectively never finish an interval — and neither
	// would this simulation. Refuse rather than hang.
	if hardness := p.Lambda * retry; hardness > maxFeasibleHardness {
		return Estimate{}, fmt.Errorf(
			"montecarlo: λ(T+R+L) = %.1f means ~e^%.0f retries per interval; regime infeasible to simulate (max %v)",
			hardness, hardness, maxFeasibleHardness)
	}

	shards := (cfg.Trials + shardTrials - 1) / shardTrials
	perShard := make([]moments, shards)
	err = par.ForEach(context.Background(), workers, perShard,
		func(_ context.Context, s int, _ moments) error {
			trials := shardTrials
			if s == shards-1 {
				trials = cfg.Trials - s*shardTrials
			}
			perShard[s] = simulateShard(p, trials, shardSeed(cfg.Seed, s))
			return nil
		})
	if err != nil {
		return Estimate{}, err
	}
	m := mergeMoments(perShard)
	mean := m.sum / float64(m.n)
	variance := m.sumSq/float64(m.n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Estimate{
		Mean:   mean,
		StdErr: math.Sqrt(variance / float64(m.n)),
		Trials: m.n,
	}, nil
}

// SimulateOverheadRatio samples r̂ = Γ̂/T − 1.
func SimulateOverheadRatio(cfg Config) (Estimate, error) {
	g, err := SimulateGamma(cfg)
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{
		Mean:   g.Mean/cfg.Params.T - 1,
		StdErr: g.StdErr / cfg.Params.T,
		Trials: g.Trials,
	}, nil
}

// ValidationRow compares analytic and simulated values for one protocol
// at one scale.
type ValidationRow struct {
	Protocol  markov.Protocol
	N         int
	Analytic  float64
	Simulated Estimate
}

// ValidateFigure8Workers runs the Monte Carlo counterpart of Figure 8: for
// each protocol and process count it returns the analytic overhead ratio
// next to the simulated estimate. workers bounds the row sweep and each
// row's trial shards (0 = GOMAXPROCS, 1 = serial; the rows are
// bit-identical either way).
func ValidateFigure8Workers(b markov.Baseline, ns []int, trials int, seed int64, workers int) ([]ValidationRow, error) {
	protocols := []markov.Protocol{markov.ApplDriven, markov.SaS, markov.ChandyLamport}
	type cell struct {
		proto markov.Protocol
		n     int
	}
	cells := make([]cell, 0, len(ns)*len(protocols))
	for _, n := range ns {
		for _, proto := range protocols {
			cells = append(cells, cell{proto, n})
		}
	}
	// Parallelism lives inside SimulateGamma's shard fan-out; the row loop
	// itself stays serial so the (row × shard) pool is bounded by one
	// worker budget instead of multiplying two.
	rows := make([]ValidationRow, 0, len(cells))
	for _, c := range cells {
		p := b.ParamsFor(c.proto, c.n)
		analytic, err := markov.OverheadRatio(p)
		if err != nil {
			return nil, err
		}
		sim, err := SimulateOverheadRatio(Config{
			Params:  p,
			Trials:  trials,
			Seed:    seed + int64(c.n)*31 + int64(c.proto),
			Workers: workers,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ValidationRow{Protocol: c.proto, N: c.n, Analytic: analytic, Simulated: sim})
	}
	return rows, nil
}
