package place

import (
	"cmp"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

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
	if err := cfg.EnumerateInto(res.Program, new(cfg.Enumeration)); err != nil {
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
				if err := cfg.EnumerateInto(res.Program, new(cfg.Enumeration)); err != nil {
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
		sk, err := newSkeleton(p)
		if err != nil {
			t.Fatal(err)
		}
		defer sk.release()
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
	opts := Options{PreserveLoops: true}
	sk, err := newSkeleton(p)
	if err != nil {
		t.Fatal(err)
	}
	defer sk.release()
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
		if _, err := sk.applyMoves(nil, p, a, gathers(a.violations[0], opts)); err != nil {
			t.Fatal(err)
		}
		round()
	})
	t.Logf("move + round: %.0f allocs", moved)
	if moved > 8 {
		t.Errorf("a move and the round after it allocate %.0f times, ceiling 8", moved)
	}
}

// TestEnsureLendsNoResults: the partial result of a fixpoint cut short by
// MaxIterations, its Residual and its program's enumeration included, and Check's
// violations are copied out of the pooled workspace: calls that rebuild that
// memory for a larger and a smaller program leave them as they were.
func TestEnsureLendsNoResults(t *testing.T) {
	progs := generatedPrograms(t)
	var larger *mpl.Program
	for _, p := range progs {
		if larger == nil || p.MaxStmtID() > larger.MaxStmtID() {
			larger = p
		}
	}
	res, err := Ensure(progs["genlarge_1"], Options{PreserveLoops: true, MaxIterations: 1})
	if err == nil || res == nil || len(res.Residual) == 0 {
		t.Fatalf("result %+v, error %v: want a fixpoint cut short with violations left", res, err)
	}
	dump := func() string {
		enum := new(cfg.Enumeration)
		err := cfg.EnumerateInto(res.Program, enum)
		return fmt.Sprintf("%s\n%+v %+v %+v %v\nresidual %+v\nenum %v %d %v\n%d %d",
			mpl.Format(res.Program), res.InitialViolations, res.Moves, res.Orderings, res.EqualizedStmts,
			res.Residual, enum.Index, enum.Count, err, res.Iterations, res.CoalescedStmts)
	}
	before := dump()
	unsafe := corpus.JacobiFig2(4)
	violations, orderings, err := Check(unsafe, DefaultOptions)
	if err != nil || len(violations) == 0 {
		t.Fatalf("Check(%s) = %v, %v: want violations", unsafe.Name, violations, err)
	}
	checked := fmt.Sprintf("%+v %+v", violations, orderings)
	for _, p := range []*mpl.Program{larger, corpus.JacobiFig2(2)} {
		if _, err := Ensure(p, DefaultOptions); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		Check(p, DefaultOptions) // it may refuse p, unequalized: the workspace goes back either way
	}
	if after := dump(); after != before {
		t.Errorf("Ensure's result changed by later calls\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if after := fmt.Sprintf("%+v %+v", violations, orderings); after != checked {
		t.Errorf("Check's result changed by later calls: %s, was %s", after, checked)
	}
}

// TestWorkspaceKeepsNoProgramAlive: a workspace back in the pool refers to
// nothing of the program it was built for, whether Check read it or Ensure
// moved its checkpoints (the dominator chains). A pooled value outlives the
// next collection in the pool's victim cache, so a send statement, or a
// receive's source expression (data flow and Ĝ resolve it to itself), that
// the workspace still referred to would survive one; unreferenced, both are
// finalized after it. (The expression is not the send's: a finalizer waits
// for the objects that refer to its object to be freed first.)
func TestWorkspaceKeepsNoProgramAlive(t *testing.T) {
	for name, call := range map[string]func(p *mpl.Program) (*mpl.Program, error){
		"Check": func(p *mpl.Program) (*mpl.Program, error) {
			_, _, err := Check(p, DefaultOptions)
			return p, err
		},
		"Ensure": func(p *mpl.Program) (*mpl.Program, error) {
			res, err := Ensure(p, DefaultOptions)
			if err == nil && len(res.Moves) == 0 {
				err = fmt.Errorf("%s needs no move", p.Name)
			}
			return res.Program, err
		},
	} {
		finalized := make(chan struct{}, 2)
		func() {
			p, err := call(corpus.JacobiFig2(4))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var send *mpl.Send
			var recv *mpl.Recv
			mpl.Walk(p.Body, func(s mpl.Stmt) bool {
				switch st := s.(type) {
				case *mpl.Send:
					send = cmp.Or(send, st)
				case *mpl.Recv:
					recv = cmp.Or(recv, st)
				}
				return true
			})
			src, ok := recv.Src.(*mpl.Binary)
			if !ok {
				t.Fatalf("receive source %s is no binary expression", mpl.ExprString(recv.Src))
			}
			runtime.SetFinalizer(send, func(*mpl.Send) { finalized <- struct{}{} })
			runtime.SetFinalizer(src, func(*mpl.Binary) { finalized <- struct{}{} })
		}()
		runtime.GC()
		for i := range 2 {
			select {
			case <-finalized:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: %d of a send statement and a receive's source finalized after a collection, want both", name, i)
			}
		}
	}
}
