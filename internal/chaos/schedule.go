package chaos

import (
	"math"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/sim"
)

// ScheduleConfig shapes a generated crash schedule.
type ScheduleConfig struct {
	// Nproc is the process count; crashed processes are drawn from it
	// without replacement per incarnation (concurrent crashes hit DISTINCT
	// processes).
	Nproc int
	// Lambda is the expected number of crashes per incarnation (Poisson).
	Lambda float64
	// MaxIncarnations is how many incarnations may receive crashes —
	// values above 1 schedule failures during recovery. Default 1.
	MaxIncarnations int
	// MaxEvents bounds the crash point: AfterEvents is drawn uniformly
	// from [1, MaxEvents]. Default 40.
	MaxEvents int
}

func (cfg *ScheduleConfig) defaults() {
	if cfg.MaxIncarnations <= 0 {
		cfg.MaxIncarnations = 1
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 40
	}
}

// poisson draws a Poisson variate (Knuth's product-of-uniforms method —
// fine for the small λ of crash schedules).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for p > l {
		k++
		p *= rng.Float64()
	}
	return k - 1
}

// CrashSchedule derives a crash schedule from (seed, λ): for each
// incarnation below MaxIncarnations it draws a Poisson number of crashes
// (capped at Nproc), assigns them to distinct processes, and picks an
// event-count crash point for each. The same seed always yields the same
// schedule; λ = 0 yields none.
func CrashSchedule(seed int64, cfg ScheduleConfig) []sim.Crash {
	cfg.defaults()
	if cfg.Nproc <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var out []sim.Crash
	for inc := 0; inc < cfg.MaxIncarnations; inc++ {
		m := poisson(rng, cfg.Lambda)
		if m > cfg.Nproc {
			m = cfg.Nproc
		}
		perm := rng.Perm(cfg.Nproc)
		for i := 0; i < m; i++ {
			out = append(out, sim.Crash{
				Inc:         inc,
				Proc:        perm[i],
				AfterEvents: 1 + rng.Intn(cfg.MaxEvents),
			})
		}
	}
	return out
}

// Faults are one run's seeded fault sources, as Arm sets them on a
// sim.Config. The zero value arms nothing.
type Faults struct {
	Seed         int64   // draws the crash schedule and every link fault
	CrashRate    float64 // expected crashes per incarnation (Poisson) ...
	Incarnations int     // ... over the first Incarnations incarnations
	NetRate      float64 // DefaultNetRates' one knob
	Partitions   []Partition
	// StoreFaults says the store can fail a save by itself (chaos-wrapped,
	// or behind a breaker that sheds), crashing the saving process.
	StoreFaults bool
}

// Arm gives cfg the faults f describes: a crash schedule in cfg.Crashes
// and a link injector in cfg.Net, which it returns (nil for clean links).
// When anything can crash a process beyond cfg.Failures, recovery gets 25
// restarts of headroom over sim's default MaxRestarts: storage faults and
// partitions crash processes no schedule names.
func Arm(cfg *sim.Config, f Faults, obsv obs.Observer) *Network {
	if f.CrashRate > 0 {
		cfg.Crashes = CrashSchedule(f.Seed, ScheduleConfig{
			Nproc: cfg.Nproc, Lambda: f.CrashRate, MaxIncarnations: f.Incarnations,
		})
	}
	var net *Network
	if f.NetRate > 0 || len(f.Partitions) > 0 {
		net = NewNetwork(f.Seed^0x2545f491, DefaultNetRates(f.NetRate), f.Partitions, obsv)
		cfg.Net = &sim.NetConfig{Chaos: net}
	}
	if f.StoreFaults || f.CrashRate > 0 || net != nil {
		cfg.MaxRestarts = len(cfg.Failures) + len(cfg.Crashes) + 1 + 25
	}
	return net
}
