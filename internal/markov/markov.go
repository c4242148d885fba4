// Package markov implements the paper's §4 performance analysis: the
// 3-state Markov chain of Figure 7 modelling one checkpoint interval
// I_{p,i+1}, the closed-form expected interval time Γ and overhead ratio
// r, and the per-protocol parameterizations (application-driven, SaS,
// Chandy-Lamport) behind Figures 8 and 9.
//
// Notation (§4): λ failure rate, T programmed checkpoint interval, o
// checkpoint overhead, l checkpoint latency, R recovery overhead, M
// message (coordination) overhead, O = o + M total checkpoint overhead,
// L = l + M total latency overhead, and
//
//	Γ = λ⁻¹ (1 − e^{−λ(T+O)}) e^{λ(T+R+L)}
//	r = Γ/T − 1 = (λ⁻¹ e^{λ(R+L−O)} (e^{λ(T+O)} − 1))/T − 1.
//
// A generic absorbing-chain solver (chain.go) recomputes Γ from the chain
// of Figure 7 directly; tests verify it agrees with the closed form.
package markov

import (
	"context"
	"fmt"
	"math"

	"repro/internal/par"
)

// Params are the model parameters for one protocol configuration. All
// times are in seconds, rates in 1/second.
type Params struct {
	Lambda float64 // λ: failure rate seen by the application
	T      float64 // programmed checkpoint interval
	O      float64 // total checkpoint overhead (o + M + C)
	L      float64 // total latency overhead (l + M + C)
	R      float64 // recovery overhead
}

// Validate rejects non-positive rates/intervals.
func (p Params) Validate() error {
	if p.Lambda <= 0 || p.T <= 0 {
		return fmt.Errorf("markov: Lambda and T must be positive: %+v", p)
	}
	if p.O < 0 || p.L < 0 || p.R < 0 {
		return fmt.Errorf("markov: overheads must be non-negative: %+v", p)
	}
	return nil
}

// Gamma returns the expected execution time of one checkpoint interval,
// the paper's closed form.
func Gamma(p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	return (1 - math.Exp(-p.Lambda*(p.T+p.O))) * math.Exp(p.Lambda*(p.T+p.R+p.L)) / p.Lambda, nil
}

// OverheadRatio returns r = Γ/T − 1.
func OverheadRatio(p Params) (float64, error) {
	g, err := Gamma(p)
	if err != nil {
		return 0, err
	}
	return g/p.T - 1, nil
}

// Baseline are the protocol-independent constants. Defaults come from the
// paper's Starfish measurements (§4): o = 1.78 s, l = 4.292 s, R = 3.32 s,
// per-process failure rate λ₁ = 1.23e-6 /s, and T = 300 s.
type Baseline struct {
	O       float64 // o: checkpoint overhead of a single local checkpoint
	Latency float64 // l: checkpoint latency
	R       float64 // R: recovery overhead
	Lambda1 float64 // λ₁: single-process failure rate
	T       float64 // programmed interval
	// WM and WB are the paper's message-cost parameters: per-message setup
	// time w_m and per-bit delay w_b.
	WM float64
	WB float64
}

// PaperBaseline is the paper's parameterization. w_m/w_b are not stated
// numerically in the paper; the defaults model a 1 ms setup cost and a
// 10 ns/bit (100 Mb/s) wire, and Figure 9 sweeps w_m anyway.
var PaperBaseline = Baseline{
	O:       1.78,
	Latency: 4.292,
	R:       3.32,
	Lambda1: 1.23e-6,
	T:       300,
	WM:      0.001,
	WB:      1e-8,
}

// SystemLambda is the failure rate of an n-process application. The paper
// argues the rate grows proportionally with n (independent process
// failures with probability p per unit time give 1−(1−p)^n ≈ np for small
// p); we use n·λ₁.
func (b Baseline) SystemLambda(n int) float64 {
	return float64(n) * b.Lambda1
}

// MessageCost is w_m + bits·w_b, the transmission cost of one control
// message.
func (b Baseline) MessageCost(bits int) float64 {
	return b.WM + float64(bits)*b.WB
}

// Protocol identifies a checkpointing protocol in the §4.1 comparison.
type Protocol int

// Compared protocols.
const (
	ApplDriven Protocol = iota + 1
	SaS
	ChandyLamport
)

// String names the protocol as in Figure 8's legend.
func (p Protocol) String() string {
	switch p {
	case ApplDriven:
		return "appl-driven"
	case SaS:
		return "SaS"
	case ChandyLamport:
		return "C-L"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// MessageOverhead is the paper's M for each protocol with n processes and
// 8-bit control messages: M(appl-driven) = 0 (the contribution),
// M(SaS) = 5(n−1)(w_m + 8w_b), M(C-L) = 2n(n−1)(w_m + 8w_b).
func (b Baseline) MessageOverhead(p Protocol, n int) float64 {
	per := b.MessageCost(8)
	switch p {
	case ApplDriven:
		return 0
	case SaS:
		return 5 * float64(n-1) * per
	case ChandyLamport:
		return 2 * float64(n) * float64(n-1) * per
	default:
		return math.NaN()
	}
}

// ParamsFor assembles the chain parameters for a protocol at scale n:
// O = o + M, L = l + M (coordination overhead C is folded into M; the
// paper gives no separate C formula).
func (b Baseline) ParamsFor(p Protocol, n int) Params {
	m := b.MessageOverhead(p, n)
	return Params{
		Lambda: b.SystemLambda(n),
		T:      b.T,
		O:      b.O + m,
		L:      b.Latency + m,
		R:      b.R,
	}
}

// Point is one x-position of a figure with the three protocols' overhead
// ratios.
type Point struct {
	X          float64 // n for Figure 8, w_m for Figure 9
	ApplDriven float64
	SaS        float64
	CL         float64
}

// Figure8Workers regenerates the paper's Figure 8: overhead ratio vs.
// number of processes for the three protocols. Points are evaluated on up
// to workers goroutines (0 = GOMAXPROCS, 1 = serial); the closed forms are
// pure, so the series is identical to a serial sweep.
func Figure8Workers(b Baseline, ns []int, workers int) ([]Point, error) {
	return par.Map(context.Background(), workers, ns,
		func(_ context.Context, _, n int) (Point, error) {
			if n < 2 {
				return Point{}, fmt.Errorf("markov: Figure 8 needs n >= 2, got %d", n)
			}
			pt := Point{X: float64(n)}
			var err error
			if pt.ApplDriven, err = OverheadRatio(b.ParamsFor(ApplDriven, n)); err != nil {
				return Point{}, err
			}
			if pt.SaS, err = OverheadRatio(b.ParamsFor(SaS, n)); err != nil {
				return Point{}, err
			}
			if pt.CL, err = OverheadRatio(b.ParamsFor(ChandyLamport, n)); err != nil {
				return Point{}, err
			}
			return pt, nil
		})
}

// Figure9Workers regenerates the paper's Figure 9: overhead ratio vs.
// message setup time w_m at fixed scale n. The appl-driven curve is flat by
// construction (no coordination messages); SaS and C-L degrade as the
// network slows. Points are evaluated on up to workers goroutines
// (0 = GOMAXPROCS, 1 = serial); the closed forms are pure, so the series is
// identical to a serial sweep.
func Figure9Workers(b Baseline, n int, wms []float64, workers int) ([]Point, error) {
	if n < 2 {
		return nil, fmt.Errorf("markov: Figure 9 needs n >= 2, got %d", n)
	}
	return par.Map(context.Background(), workers, wms,
		func(_ context.Context, _ int, wm float64) (Point, error) {
			if wm < 0 {
				return Point{}, fmt.Errorf("markov: negative w_m %v", wm)
			}
			bb := b
			bb.WM = wm
			pt := Point{X: wm}
			var err error
			if pt.ApplDriven, err = OverheadRatio(bb.ParamsFor(ApplDriven, n)); err != nil {
				return Point{}, err
			}
			if pt.SaS, err = OverheadRatio(bb.ParamsFor(SaS, n)); err != nil {
				return Point{}, err
			}
			if pt.CL, err = OverheadRatio(bb.ParamsFor(ChandyLamport, n)); err != nil {
				return Point{}, err
			}
			return pt, nil
		})
}

// DefaultFigure8Ns is the n sweep used by the bench harness.
func DefaultFigure8Ns() []int {
	return []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}

// DefaultFigure9WMs is the w_m sweep used by the bench harness (seconds).
func DefaultFigure9WMs() []float64 {
	return []float64{0, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1}
}
