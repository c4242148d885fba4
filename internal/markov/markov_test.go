package markov

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, rel float64) bool {
	if a == b {
		return true
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*den
}

func TestGammaClosedFormMatchesChain(t *testing.T) {
	tests := []Params{
		{Lambda: 1.23e-6, T: 300, O: 1.78, L: 4.292, R: 3.32},
		{Lambda: 1e-3, T: 100, O: 5, L: 10, R: 3},
		{Lambda: 0.01, T: 60, O: 2, L: 2, R: 1},
		{Lambda: 0.1, T: 10, O: 0.5, L: 0.5, R: 0.2},
		{Lambda: 1e-6 * 1024, T: 300, O: 1.78 + 2, L: 4.292 + 2, R: 3.32},
	}
	for _, p := range tests {
		closed, err := Gamma(p)
		if err != nil {
			t.Fatal(err)
		}
		chain, err := GammaFromChain(p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(closed, chain, 1e-9) {
			t.Errorf("params %+v: closed form %v != chain %v", p, closed, chain)
		}
	}
}

func TestQuickGammaChainAgreement(t *testing.T) {
	f := func(li, ti, oi, ri uint8) bool {
		p := Params{
			Lambda: 1e-6 * float64(1+int(li)%1000),
			T:      10 + float64(ti),
			O:      0.1 + float64(oi)/10,
			L:      0.1 + float64(oi)/8,
			R:      0.1 + float64(ri)/10,
		}
		closed, err1 := Gamma(p)
		chain, err2 := GammaFromChain(p)
		return err1 == nil && err2 == nil && almostEqual(closed, chain, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGammaLimits(t *testing.T) {
	// As λ→0+, Γ → T+O (no failures: the interval just runs).
	p := Params{Lambda: 1e-12, T: 300, O: 2, L: 3, R: 1}
	g, err := Gamma(p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(g, p.T+p.O, 1e-6) {
		t.Errorf("Γ at λ→0 = %v, want ≈ %v", g, p.T+p.O)
	}
	// Overhead ratio then ≈ O/T.
	r, err := OverheadRatio(p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, p.O/p.T, 1e-4) {
		t.Errorf("r at λ→0 = %v, want ≈ %v", r, p.O/p.T)
	}
}

func TestGammaMonotoneInLambda(t *testing.T) {
	base := Params{T: 300, O: 1.78, L: 4.292, R: 3.32}
	prev := 0.0
	for i, lambda := range []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2} {
		p := base
		p.Lambda = lambda
		g, err := Gamma(p)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && g <= prev {
			t.Errorf("Γ not increasing in λ: %v then %v", prev, g)
		}
		prev = g
	}
}

func TestValidation(t *testing.T) {
	bad := []Params{
		{Lambda: 0, T: 1},
		{Lambda: 1, T: 0},
		{Lambda: 1, T: 1, O: -1},
		{Lambda: 1, T: 1, R: -0.5},
	}
	for _, p := range bad {
		if _, err := Gamma(p); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

func TestMessageOverheadFormulas(t *testing.T) {
	b := PaperBaseline
	per := b.WM + 8*b.WB
	for _, n := range []int{2, 10, 100} {
		if got := b.MessageOverhead(ApplDriven, n); got != 0 {
			t.Errorf("M(appl, %d) = %v, want 0", n, got)
		}
		if got, want := b.MessageOverhead(SaS, n), 5*float64(n-1)*per; !almostEqual(got, want, 1e-12) {
			t.Errorf("M(SaS, %d) = %v, want %v", n, got, want)
		}
		if got, want := b.MessageOverhead(ChandyLamport, n), 2*float64(n)*float64(n-1)*per; !almostEqual(got, want, 1e-12) {
			t.Errorf("M(C-L, %d) = %v, want %v", n, got, want)
		}
	}
}

func TestSystemLambdaProportional(t *testing.T) {
	b := PaperBaseline
	if got := b.SystemLambda(100); !almostEqual(got, 100*b.Lambda1, 1e-12) {
		t.Errorf("SystemLambda(100) = %v", got)
	}
}

func TestSystemLambdaExactAgreesAtPaperRate(t *testing.T) {
	// The linear approximation n·λ₁ and the paper's exact combination —
	// per-unit-time failure probability p per process, so rate −n·ln(1−p)
	// for n processes — agree to within 1e-5 relative error for the paper's
	// tiny p across the Figure 8 sweep: the "increases proportionally"
	// claim.
	exactLambda := func(b Baseline, n int) float64 { return -float64(n) * math.Log1p(-b.Lambda1) }
	b := PaperBaseline
	for _, n := range DefaultFigure8Ns() {
		lin, exact := b.SystemLambda(n), exactLambda(b, n)
		if !almostEqual(lin, exact, 1e-5) {
			t.Errorf("n=%d: linear %v vs exact %v", n, lin, exact)
		}
		if exact <= lin {
			t.Errorf("n=%d: exact rate should exceed linear (convexity)", n)
		}
	}
	// At a large p the two separate noticeably.
	big := Baseline{Lambda1: 0.1}
	if almostEqual(big.SystemLambda(10), exactLambda(big, 10), 1e-3) {
		t.Error("large-p rates should differ")
	}
}

// TestFigure8Shape verifies the qualitative claims of the paper's Figure 8:
// the application-driven protocol has the smallest overhead ratio at every
// n; all curves increase with n (failure rate grows with n); and C-L
// overtakes SaS as its quadratic message count dominates.
func TestFigure8Shape(t *testing.T) {
	pts, err := Figure8Workers(PaperBaseline, DefaultFigure8Ns(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		if !(pt.ApplDriven < pt.SaS) || !(pt.ApplDriven < pt.CL) {
			t.Errorf("n=%v: appl-driven %v not smallest (SaS %v, C-L %v)",
				pt.X, pt.ApplDriven, pt.SaS, pt.CL)
		}
		if i > 0 {
			prev := pts[i-1]
			if pt.ApplDriven <= prev.ApplDriven || pt.SaS <= prev.SaS || pt.CL <= prev.CL {
				t.Errorf("overhead ratio not increasing with n at %v", pt.X)
			}
		}
	}
	// For large n, C-L (quadratic messages) must exceed SaS (linear).
	last := pts[len(pts)-1]
	if !(last.CL > last.SaS) {
		t.Errorf("at n=%v C-L (%v) should exceed SaS (%v)", last.X, last.CL, last.SaS)
	}
}

// TestFigure9Shape verifies Figure 9: appl-driven is flat in w_m, SaS and
// C-L strictly degrade.
func TestFigure9Shape(t *testing.T) {
	const n = 64
	pts, err := Figure9Workers(PaperBaseline, n, DefaultFigure9WMs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		if i == 0 {
			continue
		}
		prev := pts[i-1]
		if pt.ApplDriven != prev.ApplDriven {
			t.Errorf("appl-driven moved with w_m: %v -> %v", prev.ApplDriven, pt.ApplDriven)
		}
		if !(pt.SaS > prev.SaS) {
			t.Errorf("SaS not increasing at w_m=%v", pt.X)
		}
		if !(pt.CL > prev.CL) {
			t.Errorf("C-L not increasing at w_m=%v", pt.X)
		}
	}
}

func TestFigureInputValidation(t *testing.T) {
	if _, err := Figure8Workers(PaperBaseline, []int{1}, 0); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Figure9Workers(PaperBaseline, 1, []float64{0.1}, 0); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Figure9Workers(PaperBaseline, 8, []float64{-1}, 0); err == nil {
		t.Error("negative w_m accepted")
	}
}

func TestProtocolString(t *testing.T) {
	if ApplDriven.String() != "appl-driven" || SaS.String() != "SaS" || ChandyLamport.String() != "C-L" {
		t.Error("protocol names wrong")
	}
}

func TestChainValidate(t *testing.T) {
	c := NewChain(2)
	c.P[0][1] = 0.5 // mass 0.5: invalid
	if err := c.Validate(); err == nil {
		t.Error("half-mass row accepted")
	}
	c.P[0][0] = 0.5
	if err := c.Validate(); err != nil {
		t.Errorf("full row rejected: %v", err)
	}
	c.P[0][1] = 1.5
	if err := c.Validate(); err == nil {
		t.Error("probability > 1 accepted")
	}
}

func TestChainSimpleExpectedCost(t *testing.T) {
	// Two states: 0 → 1 (absorbing) with probability 1 and cost 7.
	c := NewChain(2)
	c.P[0][1] = 1
	c.W[0][1] = 7
	costs, err := c.ExpectedCost()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(costs[0], 7, 1e-12) || costs[1] != 0 {
		t.Errorf("costs = %v", costs)
	}
}

func TestChainGeometricRetry(t *testing.T) {
	// State 0 retries itself with prob 0.5 (cost 1) or absorbs (cost 1):
	// expected total cost = 2.
	c := NewChain(2)
	c.P[0][0] = 0.5
	c.W[0][0] = 1
	c.P[0][1] = 0.5
	c.W[0][1] = 1
	costs, err := c.ExpectedCost()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(costs[0], 2, 1e-9) {
		t.Errorf("expected cost = %v, want 2", costs[0])
	}
}

func TestChainNonAbsorbingFails(t *testing.T) {
	// Two states cycling forever: singular system.
	c := NewChain(2)
	c.P[0][1] = 1
	c.P[1][0] = 1
	if _, err := c.ExpectedCost(); err == nil {
		t.Error("non-absorbing chain accepted")
	}
}

func BenchmarkGammaClosedForm(b *testing.B) {
	p := PaperBaseline.ParamsFor(SaS, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Gamma(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGammaFromChain(b *testing.B) {
	p := PaperBaseline.ParamsFor(SaS, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GammaFromChain(p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFigureSweepsIdenticalAcrossWorkerCounts(t *testing.T) {
	// The sweeps are pure closed-form evaluations, so the parallel fan-out
	// must reproduce the serial series exactly, point for point.
	ref8, err := Figure8Workers(PaperBaseline, DefaultFigure8Ns(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ref9, err := Figure9Workers(PaperBaseline, 64, DefaultFigure9WMs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 5, 16} {
		got8, err := Figure8Workers(PaperBaseline, DefaultFigure8Ns(), workers)
		if err != nil {
			t.Fatal(err)
		}
		got9, err := Figure9Workers(PaperBaseline, 64, DefaultFigure9WMs(), workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref8 {
			if got8[i] != ref8[i] {
				t.Errorf("workers=%d: Figure 8 point %d = %+v, want %+v", workers, i, got8[i], ref8[i])
			}
		}
		for i := range ref9 {
			if got9[i] != ref9[i] {
				t.Errorf("workers=%d: Figure 9 point %d = %+v, want %+v", workers, i, got9[i], ref9[i])
			}
		}
	}
	// Invalid points must surface from the parallel sweep too.
	if _, err := Figure8Workers(PaperBaseline, []int{2, 1}, 4); err == nil {
		t.Error("Figure8Workers accepted n=1")
	}
	if _, err := Figure9Workers(PaperBaseline, 64, []float64{0.001, -1}, 4); err == nil {
		t.Error("Figure9Workers accepted negative w_m")
	}
}
