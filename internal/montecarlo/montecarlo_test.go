package montecarlo

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/markov"
	"repro/internal/par"
)

func TestSimulateGammaMatchesClosedForm(t *testing.T) {
	// Use a high failure rate so failures actually occur and the retry
	// path is exercised; with λ(T+O) ≈ 0.6 most trials hit at least one
	// failure.
	p := markov.Params{Lambda: 0.01, T: 50, O: 5, L: 8, R: 3}
	analytic, err := markov.Gamma(p)
	if err != nil {
		t.Fatal(err)
	}
	est, err := SimulateGamma(Config{Params: p, Trials: 200000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !within(est, analytic, 4) {
		t.Errorf("analytic Γ %v outside 4σ of simulation %v", analytic, est)
	}
}

func TestSimulateGammaLowFailureRegime(t *testing.T) {
	// Paper regime: failures are rare, Γ ≈ T+O.
	p := markov.Params{Lambda: 1.23e-4, T: 300, O: 1.78, L: 4.292, R: 3.32}
	analytic, err := markov.Gamma(p)
	if err != nil {
		t.Fatal(err)
	}
	est, err := SimulateGamma(Config{Params: p, Trials: 100000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !within(est, analytic, 4) {
		t.Errorf("analytic Γ %v outside 4σ of simulation %v", analytic, est)
	}
}

func TestSimulateOverheadRatio(t *testing.T) {
	p := markov.Params{Lambda: 0.005, T: 100, O: 4, L: 6, R: 2}
	analytic, err := markov.OverheadRatio(p)
	if err != nil {
		t.Fatal(err)
	}
	est, err := SimulateOverheadRatio(Config{Params: p, Trials: 150000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !within(est, analytic, 4) {
		t.Errorf("analytic r %v outside 4σ of simulation %v", analytic, est)
	}
}

func TestSimulateDeterministicForSeed(t *testing.T) {
	cfg := Config{Params: markov.Params{Lambda: 0.01, T: 10, O: 1, L: 1, R: 1}, Trials: 1000, Seed: 42}
	a, err := SimulateGamma(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateGamma(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean != b.Mean || a.StdErr != b.StdErr {
		t.Error("same seed gave different estimates")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := SimulateGamma(Config{Params: markov.Params{Lambda: 1, T: 1}, Trials: 0}); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := SimulateGamma(Config{Params: markov.Params{}, Trials: 10}); err == nil {
		t.Error("invalid params accepted")
	}
	_, err := SimulateGamma(Config{Params: markov.Params{Lambda: 1, T: 1}, Trials: 10, Workers: -3})
	var inv *par.InvalidWorkersError
	if !errors.As(err, &inv) || inv.Workers != -3 {
		t.Errorf("Workers=-3: err = %v, want *par.InvalidWorkersError{-3}", err)
	}
}

func TestSimulateBitIdenticalAcrossWorkerCounts(t *testing.T) {
	// The load-bearing guarantee of the parallel engine: sharding is a
	// function of Trials alone and shard moments merge in a fixed tree, so
	// the Estimate must be IDENTICAL — not statistically close — for every
	// worker count. Trial counts straddle shard boundaries on purpose
	// (below one shard, exact multiples, ragged tails).
	p := markov.Params{Lambda: 0.01, T: 50, O: 5, L: 8, R: 3}
	for _, trials := range []int{1, 100, shardTrials, shardTrials + 1, 3*shardTrials + 17, 100000} {
		ref, err := SimulateGamma(Config{Params: p, Trials: trials, Seed: 42, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Trials != trials {
			t.Fatalf("trials=%d: estimate covers %d trials", trials, ref.Trials)
		}
		for _, workers := range []int{0, 2, 3, 8, 64} {
			got, err := SimulateGamma(Config{Params: p, Trials: trials, Seed: 42, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Errorf("trials=%d workers=%d: %+v differs from workers=1 %+v",
					trials, workers, got, ref)
			}
		}
	}
}

func TestShardSeedsDecorrelated(t *testing.T) {
	// Adjacent shards must get distinct seeds for every base seed,
	// including the adversarial 0 and -1.
	for _, seed := range []int64{0, -1, 1, 42, 1 << 40} {
		seen := map[int64]int{}
		for s := 0; s < 64; s++ {
			ss := shardSeed(seed, s)
			if prev, dup := seen[ss]; dup {
				t.Fatalf("seed %d: shards %d and %d collide on %d", seed, prev, s, ss)
			}
			seen[ss] = s
		}
	}
}

func TestInfeasibleRegimeRejected(t *testing.T) {
	// λ(T+R+L) = 31: each interval would need ~e^31 attempts.
	p := markov.Params{Lambda: 0.1, T: 300, O: 2, L: 4, R: 3}
	_, err := SimulateGamma(Config{Params: p, Trials: 10, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "infeasible") {
		t.Fatalf("err = %v, want infeasible-regime rejection", err)
	}
}

func TestEstimateString(t *testing.T) {
	e := Estimate{Mean: 1.5, StdErr: 0.01, Trials: 100}
	s := e.String()
	if !strings.Contains(s, "1.5") || !strings.Contains(s, "n=100") {
		t.Errorf("String = %q", s)
	}
}

// within reports whether x lies inside k standard errors of the estimate.
func within(e Estimate, x, k float64) bool { return math.Abs(x-e.Mean) <= k*e.StdErr }

func TestValidateFigure8AgreesWithAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo sweep skipped in -short")
	}
	// Inflate the failure rate so the simulation sees failures at small
	// trial counts; agreement between chain and sampling is what matters.
	b := markov.PaperBaseline
	b.Lambda1 = 1e-4
	rows, err := ValidateFigure8Workers(b, []int{2, 16, 64}, 60000, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		// Either within 5σ or within 0.1% relative (σ can be tiny).
		rel := math.Abs(row.Analytic-row.Simulated.Mean) /
			math.Max(math.Abs(row.Analytic), 1e-12)
		if !within(row.Simulated, row.Analytic, 5) && rel > 1e-3 {
			t.Errorf("%v n=%d: analytic %v vs simulated %v",
				row.Protocol, row.N, row.Analytic, row.Simulated)
		}
	}
}

// BenchmarkSimulateGamma sweeps worker counts over a fixed trial budget:
// the workers=1 sub-benchmark is the serial baseline the parallel speedup
// in BENCH_sweeps.json is measured against, and every variant returns the
// same bits.
func BenchmarkSimulateGamma(b *testing.B) {
	const trials = 200000
	counts := []int{1, 2, 4}
	if gmp := runtime.GOMAXPROCS(0); gmp > 4 {
		counts = append(counts, gmp)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Config{
				Params:  markov.Params{Lambda: 0.01, T: 50, O: 5, L: 8, R: 3},
				Trials:  trials,
				Seed:    1,
				Workers: workers,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i)
				if _, err := SimulateGamma(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}
