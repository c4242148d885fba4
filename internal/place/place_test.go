package place

import (
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/corpus"
	"repro/internal/insert"
	"repro/internal/mpl"
)

func ensure(t *testing.T, p *mpl.Program, opts Options) *Result {
	t.Helper()
	res, err := Ensure(p, opts)
	if err != nil {
		t.Fatalf("Ensure(%s): %v", p.Name, err)
	}
	return res
}

// assertSafe re-checks the transformed program with Check: no movable
// violations may remain.
func assertSafe(t *testing.T, p *mpl.Program, opts Options) {
	t.Helper()
	violations, _, err := Check(p, opts)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(violations) != 0 {
		t.Fatalf("transformed program still has violations: %+v", violations)
	}
}

func TestJacobiFig1AlreadySafe(t *testing.T) {
	p := corpus.JacobiFig1(3)
	res := ensure(t, p, DefaultOptions)
	if len(res.InitialViolations) != 0 {
		t.Errorf("Fig1 reported violations: %+v", res.InitialViolations)
	}
	if len(res.Moves) != 0 {
		t.Errorf("Fig1 moved checkpoints: %+v", res.Moves)
	}
	if mpl.Format(res.Program) != mpl.Format(p) {
		t.Error("Fig1 program changed")
	}
}

func TestJacobiFig2PreserveLoops(t *testing.T) {
	p := corpus.JacobiFig2(3)
	res := ensure(t, p, DefaultOptions)
	if len(res.InitialViolations) == 0 {
		t.Fatal("Fig2 must initially violate Condition 1 (paper Figure 3)")
	}
	if len(res.Moves) == 0 {
		t.Fatal("Fig2 requires checkpoint movement")
	}
	assertSafe(t, res.Program, DefaultOptions)
	// The checkpoints must both remain inside the loop (the point of the
	// optimization): the while body still contains two chkpt statements.
	var w *mpl.While
	for _, s := range res.Program.Body {
		if ws, ok := s.(*mpl.While); ok {
			w = ws
		}
	}
	if w == nil {
		t.Fatal("loop vanished")
	}
	inLoop := 0
	mpl.Walk(w.Body, func(s mpl.Stmt) bool {
		if _, ok := s.(*mpl.Chkpt); ok {
			inLoop++
		}
		return true
	})
	if inLoop != 2 {
		t.Errorf("checkpoints in loop = %d, want 2 (loop preservation)", inLoop)
	}
	// The odd branch's checkpoint must now precede its receive.
	ifStmt := findIf(w.Body)
	if ifStmt == nil {
		t.Fatal("if vanished")
	}
	if _, ok := ifStmt.Else[0].(*mpl.Chkpt); !ok {
		t.Errorf("odd branch does not start with chkpt: %s", mpl.DescribeStmt(ifStmt.Else[0]))
	}
	// Cross-iteration causality should be recorded as orderings.
	if len(res.Orderings) == 0 {
		t.Error("no orderings recorded for loop-crossing causality")
	}
}

func findIf(body []mpl.Stmt) *mpl.If {
	var out *mpl.If
	mpl.Walk(body, func(s mpl.Stmt) bool {
		if i, ok := s.(*mpl.If); ok {
			out = i
			return false
		}
		return true
	})
	return out
}

func TestJacobiFig2BaseMode(t *testing.T) {
	p := corpus.JacobiFig2(3)
	opts := Options{PreserveLoops: false}
	res := ensure(t, p, opts)
	assertSafe(t, res.Program, opts)
	if len(res.Moves) == 0 {
		t.Fatal("base mode must move checkpoints")
	}
	// Base mode pays the paper's noted drawback: checkpoints leave the
	// loop. The loop body must contain none.
	var w *mpl.While
	for _, s := range res.Program.Body {
		if ws, ok := s.(*mpl.While); ok {
			w = ws
		}
	}
	inLoop := 0
	mpl.Walk(w.Body, func(s mpl.Stmt) bool {
		if _, ok := s.(*mpl.Chkpt); ok {
			inLoop++
		}
		return true
	})
	if inLoop != 0 {
		t.Errorf("base mode left %d checkpoints in the loop", inLoop)
	}
	// Gathered duplicates must have been coalesced to keep enumeration
	// aligned.
	if res.CoalescedStmts == 0 {
		t.Error("expected coalescing of gathered checkpoints")
	}
	if _, err := cfg.Enumerate(res.Program); err != nil {
		t.Errorf("base-mode result does not enumerate: %v", err)
	}
	// Base mode leaves no orderings: every causal pair was eliminated.
	if len(res.Orderings) != 0 {
		t.Errorf("base mode recorded orderings: %+v", res.Orderings)
	}
}

func TestPipelinePreserveLoops(t *testing.T) {
	p := corpus.PipelineStages(3)
	res := ensure(t, p, DefaultOptions)
	if len(res.InitialViolations) == 0 {
		t.Fatal("pipeline must initially violate Condition 1")
	}
	assertSafe(t, res.Program, DefaultOptions)
	// The receiving half's checkpoint must have moved before the recv.
	ifStmt := findIf(res.Program.Body)
	if ifStmt == nil {
		t.Fatal("if vanished")
	}
	if _, ok := ifStmt.Else[0].(*mpl.Chkpt); !ok {
		t.Errorf("receiver branch does not start with chkpt: %s", mpl.DescribeStmt(ifStmt.Else[0]))
	}
}

func TestInputNotMutated(t *testing.T) {
	p := corpus.JacobiFig2(2)
	before := mpl.Format(p)
	_ = ensure(t, p, DefaultOptions)
	if mpl.Format(p) != before {
		t.Error("Ensure mutated its input program")
	}
}

func TestAllCorpusConverges(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"preserve", DefaultOptions},
		{"base", Options{PreserveLoops: false}},
	} {
		for name, p := range corpus.All() {
			t.Run(mode.name+"/"+name, func(t *testing.T) {
				res, err := Ensure(p, mode.opts)
				if err != nil {
					t.Fatalf("Ensure: %v", err)
				}
				violations, _, err := Check(res.Program, mode.opts)
				if err != nil {
					t.Fatalf("Check: %v", err)
				}
				if len(violations) != 0 {
					t.Errorf("residual violations: %+v\nprogram:\n%s",
						violations, mpl.Format(res.Program))
				}
				if _, err := cfg.Enumerate(res.Program); err != nil {
					t.Errorf("result does not enumerate: %v", err)
				}
				// The transformed program must still parse/check after
				// printing (structural integrity).
				if _, err := mpl.Parse(mpl.Format(res.Program)); err != nil {
					t.Errorf("result does not reparse: %v\n%s", err, mpl.Format(res.Program))
				}
			})
		}
	}
}

func TestMaxIterationsEnforced(t *testing.T) {
	p := corpus.JacobiFig2(2)
	// One iteration is only enough to detect, not to fix and verify.
	_, err := Ensure(p, Options{PreserveLoops: true, MaxIterations: 1})
	if err == nil || !strings.Contains(err.Error(), "no fixpoint") {
		t.Fatalf("err = %v, want fixpoint failure", err)
	}
}

func TestCheckReportsWithoutTransforming(t *testing.T) {
	p := corpus.JacobiFig2(2)
	before := mpl.Format(p)
	violations, _, err := Check(p, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) == 0 {
		t.Error("Check missed the Fig2 violation")
	}
	v := violations[0]
	if v.Index != 1 {
		t.Errorf("violation index = %d, want 1", v.Index)
	}
	if v.ViaBackEdge {
		t.Error("Fig2's witness is back-edge-free")
	}
	if mpl.Format(p) != before {
		t.Error("Check mutated the program")
	}
}

func TestEnsureRequiresUnambiguousOrEqualizes(t *testing.T) {
	src := `
program amb
var x
proc {
    if rank == 0 {
        chkpt
        send(1, x)
    } else {
        recv(0, x)
    }
}
`
	p, err := mpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res := ensure(t, p, DefaultOptions)
	if len(res.EqualizedStmts) == 0 {
		t.Error("unbalanced program not equalized")
	}
	assertSafe(t, res.Program, DefaultOptions)
}

func TestOrderingsDeduped(t *testing.T) {
	p := corpus.JacobiFig2(3)
	res := ensure(t, p, DefaultOptions)
	seen := map[Ordering]bool{}
	for _, o := range res.Orderings {
		if seen[o] {
			t.Errorf("duplicate ordering %+v", o)
		}
		seen[o] = true
	}
}

// TestSelfPairViolationRepaired pins the from == to case of the
// Condition-1 scan: a single checkpoint statement shared by all ranks is
// violated AGAINST ITSELF when rank-guarded communication gives its node a
// message-bearing causal path back to the same node — here rank 1's
// instance forwards a reply that rank 0 consumes before reaching its own
// instance of the very same statement, all within one control-flow pass
// (no back edge). The generative harness found this shape escaping an
// analyzer that skipped self-pairs.
func TestSelfPairViolationRepaired(t *testing.T) {
	b := mpl.NewBuilder("selfpair")
	b.Vars("a", "tmp")
	b.Assign("a", mpl.Add(mpl.Rank(), mpl.Int(1)))
	b.If(mpl.Eq(mpl.Rank(), mpl.Int(0)), func(b *mpl.Builder) {
		b.Send(mpl.Int(1), "a")
		b.Recv(mpl.Int(1), "tmp")
	})
	b.Chkpt()
	b.If(mpl.Eq(mpl.Rank(), mpl.Int(1)), func(b *mpl.Builder) {
		b.Recv(mpl.Int(0), "tmp")
		b.Send(mpl.Int(0), "tmp")
	})
	p := b.MustProgram()

	res := ensure(t, p, DefaultOptions)
	if len(res.InitialViolations) == 0 {
		t.Fatal("self-pair Condition-1 violation not detected")
	}
	v := res.InitialViolations[0]
	if v.FromStmt != v.ToStmt {
		t.Errorf("want a self-pair violation (FromStmt == ToStmt), got %+v", v)
	}
	if len(res.Moves) == 0 {
		t.Fatal("violating checkpoint was not moved")
	}
	assertSafe(t, res.Program, DefaultOptions)
}

// TestSelfPairLoopOrdering is the PreserveLoops counterpart: when the only
// causal self-path crosses a loop back edge (plain ring shift), the
// checkpoint stays put and the pair is recorded as a cross-iteration
// ordering of the statement with itself.
func TestSelfPairLoopOrdering(t *testing.T) {
	b := mpl.NewBuilder("selfloop")
	b.Vars("a", "tmp", "j")
	b.Assign("a", mpl.Add(mpl.Rank(), mpl.Int(1)))
	b.Assign("j", mpl.Int(0))
	b.While(mpl.Lt(mpl.V("j"), mpl.Int(2)), func(b *mpl.Builder) {
		b.Chkpt()
		b.Send(mpl.Mod(mpl.Add(mpl.Rank(), mpl.Int(1)), mpl.Nproc()), "a")
		b.Recv(mpl.Mod(mpl.Sub(mpl.Rank(), mpl.Int(1)), mpl.Nproc()), "tmp")
		b.Assign("a", mpl.Add(mpl.V("a"), mpl.V("tmp")))
		b.Assign("j", mpl.Add(mpl.V("j"), mpl.Int(1)))
	})
	p := b.MustProgram()

	res := ensure(t, p, DefaultOptions)
	if len(res.Moves) != 0 {
		t.Errorf("loop-only self-causality must not move checkpoints: %+v", res.Moves)
	}
	found := false
	for _, o := range res.Orderings {
		if o.EarlierStmt == o.LaterStmt {
			found = true
		}
	}
	if !found {
		t.Errorf("no self-ordering recorded; orderings: %+v", res.Orderings)
	}
	assertSafe(t, res.Program, DefaultOptions)
}

func BenchmarkEnsureJacobiFig2(b *testing.B) {
	p := corpus.JacobiFig2(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Ensure(p, DefaultOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckCorpus(b *testing.B) {
	progs := corpus.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, _, err := Check(p, DefaultOptions); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestSkeletonMismatchIsAnError: the skeleton is only valid for the program
// it was built from plus or minus checkpoint statements, and every round
// checks that on its walk — a statement added, dropped or swapped is an
// error from the round, not an answer read off stale closures.
func TestSkeletonMismatchIsAnError(t *testing.T) {
	edits := map[string]func(w *mpl.While){
		"added":   func(w *mpl.While) { w.Body = append(w.Body, &mpl.Work{Amount: mpl.Int(1)}) },
		"dropped": func(w *mpl.While) { w.Body = w.Body[:len(w.Body)-1] },
		"swapped": func(w *mpl.While) { n := len(w.Body); w.Body[n-1], w.Body[n-2] = w.Body[n-2], w.Body[n-1] },
	}
	for name, edit := range edits {
		p := corpus.JacobiFig2(3)
		sk, err := newSkeleton(p, DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		a := &analysis{}
		if err := sk.analyze(p, a, DefaultOptions); err != nil {
			t.Fatalf("unedited program: %v", err)
		}
		mpl.Walk(p.Body, func(s mpl.Stmt) bool {
			if w, ok := s.(*mpl.While); ok {
				edit(w)
			}
			return true
		})
		if err := sk.analyze(p, a, DefaultOptions); err == nil || !strings.Contains(err.Error(), "no longer its skeleton") {
			t.Errorf("%s statement: err = %v, want a skeleton mismatch", name, err)
		}
	}
}

// TestRoundAllocs pins what a round costs once the skeleton stands (DESIGN
// decision 17): analysing a program a second time allocates nothing — no
// graph, no solver table, no bitset, no enumeration map — and the round
// after a move only what the closures of the gaps no earlier round looked
// from take out of the arena.
func TestRoundAllocs(t *testing.T) {
	p := mpl.Clone(generatedPrograms(t)["genlarge_1"])
	if _, err := insert.Equalize(p); err != nil {
		t.Fatal(err)
	}
	opts := Options{PreserveLoops: true, Arena: &cfg.Arena{}}
	sk, err := newSkeleton(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	a := &analysis{}
	round := func() {
		if err := sk.analyze(p, a, opts); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if len(a.violations) == 0 {
		t.Fatal("genlarge_1 has nothing to move")
	}
	if got := testing.AllocsPerRun(10, round); got != 0 {
		t.Errorf("a repeated round allocates %.0f times, want 0", got)
	}
	moved := testing.AllocsPerRun(1, func() {
		if _, err := sk.applyMoves(p, a, opts); err != nil {
			t.Fatal(err)
		}
		round()
	})
	t.Logf("move + round: %.0f allocs", moved)
	if moved > 8 {
		t.Errorf("a move and the round after it allocate %.0f times, ceiling 8", moved)
	}
}
