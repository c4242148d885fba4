package place

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/corpus"
	"repro/internal/dataflow"
	"repro/internal/insert"
	"repro/internal/match"
	"repro/internal/mpl"
)

// This file keeps the fixpoint Ensure replaced — the one that rebuilds Ĝ
// every round — as the reference the skeleton is held to: a plain
// cfg.Build of the whole program, checkpoints included, an uncached
// match.Match on it, one closure BFS per checkpoint node, and the
// dominator chain from Graph.Dominators(). It shares with Ensure only the
// statement surgery (moveChkptBefore, moveReason, hasAdjacentChkpts), which
// is not what changed.

// refAnalysis is one reference round.
type refAnalysis struct {
	enum       *cfg.Enumeration
	ext        *match.Extended
	cuts       map[int][]int // chkpt CFG node ids per straight-cut index, in node order
	violations []Violation
	orderings  []Ordering
	firstFrom  int // CFG node of violations[0].FromStmt
	firstTo    int // CFG node of violations[0].ToStmt
}

func refAnalyze(p *mpl.Program, df *dataflow.Result, opts Options) (*refAnalysis, error) {
	enum, err := cfg.Enumerate(p)
	if err != nil {
		return nil, fmt.Errorf("place: %w", err)
	}
	g, err := cfg.Build(p)
	if err != nil {
		return nil, err
	}
	ext, err := match.Match(p, g, df, match.Options{})
	if err != nil {
		return nil, err
	}
	a := &refAnalysis{enum: enum, ext: ext, cuts: enumerateGraph(g, enum)}
	for i := 1; i <= enum.Count; i++ {
		for _, from := range a.cuts[i] {
			for _, to := range a.cuts[i] {
				if !ext.CausallyReaches(from, to) {
					continue
				}
				needsBack := ext.CausalNeedsBack(from, to)
				fromStmt, toStmt := g.Nodes[from].Stmt.ID(), g.Nodes[to].Stmt.ID()
				if opts.PreserveLoops && needsBack {
					a.orderings = append(a.orderings, Ordering{Index: i, EarlierStmt: fromStmt, LaterStmt: toStmt})
					continue
				}
				if len(a.violations) == 0 {
					a.firstFrom, a.firstTo = from, to
				}
				a.violations = append(a.violations, Violation{Index: i, FromStmt: fromStmt, ToStmt: toStmt, ViaBackEdge: needsBack})
			}
		}
	}
	return a, nil
}

// enumerateGraph applies an Enumeration to a graph, returning for each
// checkpoint index i the CFG node ids of S_i, in id order.
func enumerateGraph(g *cfg.Graph, enum *cfg.Enumeration) map[int][]int {
	out := make(map[int][]int)
	for _, n := range g.Nodes {
		if n.Kind != cfg.KindChkpt {
			continue
		}
		if idx, ok := enum.Index[n.Stmt.ID()]; ok {
			out[idx] = append(out[idx], n.ID)
		}
	}
	return out
}

func refEnsure(p *mpl.Program, opts Options, tap func(*mpl.Program, []Violation, []Ordering)) (*Result, error) {
	prog := mpl.Clone(p)
	res := &Result{}
	eq, err := insert.Equalize(prog)
	if err != nil {
		return nil, fmt.Errorf("place: pre-equalization: %w", err)
	}
	res.EqualizedStmts = append(res.EqualizedStmts, eq...)
	df := dataflow.Analyze(prog)
	round := func(prog *mpl.Program) (*refAnalysis, error) {
		a, err := refAnalyze(prog, df, opts)
		if err == nil {
			tap(prog, a.violations, a.orderings)
		}
		return a, err
	}
	cur, err := round(prog)
	if err != nil {
		return nil, err
	}
	res.InitialViolations = cur.violations
	for iter := 0; ; iter++ {
		if iter >= opts.maxIter() {
			res.Program = prog
			res.Orderings = refDedupOrderings(cur.orderings)
			res.Enumeration = cur.enum
			res.Residual = cur.violations
			return res, fmt.Errorf("place: no fixpoint after %d iterations (%d violations remain)",
				iter, len(cur.violations))
		}
		res.Iterations = iter + 1
		if len(cur.violations) == 0 {
			break
		}
		moves, err := refApplyMoves(prog, cur, opts)
		if err != nil {
			return nil, err
		}
		res.Moves = append(res.Moves, moves...)
		if !opts.PreserveLoops {
			res.CoalescedStmts += insert.Coalesce(prog)
		}
		eq, err := insert.Equalize(prog)
		if err != nil {
			return nil, fmt.Errorf("place: re-equalization: %w", err)
		}
		res.EqualizedStmts = append(res.EqualizedStmts, eq...)
		if cur, err = round(prog); err != nil {
			return nil, err
		}
	}
	if hasAdjacentChkpts(prog.Body) {
		cleaned := mpl.Clone(prog)
		if removed := insert.Coalesce(cleaned); removed > 0 {
			if eq, err := insert.Equalize(cleaned); err == nil && len(eq) == 0 {
				if after, err := round(cleaned); err == nil && len(after.violations) == 0 {
					prog, cur = cleaned, after
					res.CoalescedStmts = removed
				}
			}
		}
	}
	res.Program = prog
	res.Orderings = refDedupOrderings(cur.orderings)
	res.Enumeration = cur.enum
	return res, nil
}

func refDedupOrderings(in []Ordering) []Ordering {
	seen := make(map[Ordering]bool, len(in))
	var out []Ordering
	for _, o := range in {
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}

func refApplyMoves(prog *mpl.Program, a *refAnalysis, opts Options) ([]Move, error) {
	g := a.ext.G
	index := a.violations[0].Index
	var moveStmts []int
	reach := cfg.NewBitset(len(g.Nodes))
	if opts.PreserveLoops {
		moveStmts = []int{g.Nodes[a.firstTo].Stmt.ID()}
		reach.UnionWith(a.ext.ReachableExtended(a.firstFrom, true))
	} else {
		for _, n := range a.cuts[index] {
			moveStmts = append(moveStmts, g.Nodes[n].Stmt.ID())
			reach.UnionWith(a.ext.ReachableExtended(n, false))
		}
	}
	chain := refDomChain(g, a.firstTo)
	for k := len(chain) - 1; k >= 0; k-- {
		aNode := g.Entry
		if k > 0 {
			aNode = chain[k-1]
		}
		if reach.Has(aNode) {
			continue
		}
		targetStmt := g.Nodes[chain[k]].Stmt.ID()
		var moves []Move
		for _, ck := range moveStmts {
			if ck == targetStmt {
				continue
			}
			moved, err := moveChkptBefore(prog, ck, targetStmt)
			if err != nil {
				return nil, err
			}
			moves = append(moves, Move{
				ChkptStmt: moved, Index: index, BeforeStmt: targetStmt,
				Reason: moveReason(index, moved, g.Nodes[a.firstFrom].Stmt.ID(), targetStmt),
			})
		}
		return moves, nil
	}
	return nil, errors.New("place: no movement position found (checkpoint already at program start)")
}

// refDomChain returns the strict dominators of node other than the entry,
// outermost first, from the dominator sets.
func refDomChain(g *cfg.Graph, node int) []int {
	dom := g.Dominators()
	var chain []int
	for _, n := range dom[node].AppendMembers(nil) {
		if n != node && n != g.Entry {
			chain = append(chain, n)
		}
	}
	sort.Slice(chain, func(i, j int) bool { return cfg.Dominates(dom, chain[i], chain[j]) })
	return chain
}

// roundView is what one analysed round looked like.
type roundView struct {
	Prog       string
	Violations []Violation
	Orderings  []Ordering
}

func view(p *mpl.Program, v []Violation, o []Ordering) roundView {
	return roundView{mpl.Format(p), append([]Violation(nil), v...), append([]Ordering(nil), o...)}
}

// generatedPrograms parses testdata/generated.mpl: verify.GenerateLarge(1..8,
// 6) — the analysis-large workload's programs — and verify.Generate(1..40)
// as mpl.Format printed them, one after the other (package verify imports
// this one, so its generators cannot be called from here).
func generatedPrograms(t *testing.T) map[string]*mpl.Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "generated.mpl"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*mpl.Program{}
	for _, one := range strings.SplitAfter(string(src), "\n}\n") {
		if strings.TrimSpace(one) == "" {
			continue
		}
		p, err := mpl.Parse(one)
		if err != nil {
			t.Fatalf("testdata/generated.mpl: %v\n%s", err, one)
		}
		out[p.Name] = p
	}
	return out
}

// handWritten are programs whose checkpoints sit in the gaps the generators
// rarely produce: behind an if whose message arrives through the else
// branch, at the end of an if branch that ends a while body, alone in a
// while body, two to a gap, behind an if inside an if branch.
var handWritten = []string{`
program selfpair_else
var a, tmp
proc {
    a = rank + 1
    if rank != 0 {
    } else {
        send(1, a)
        recv(1, tmp)
    }
    chkpt
    if rank == 1 {
        recv(0, tmp)
        send(0, tmp)
    }
}`, `
program branch_end_is_body_end
var a, tmp, j
proc {
    j = 0
    while j < 2 {
        j = j + 1
        if rank % 2 == 0 {
            send(rank + 1, a)
            chkpt
        } else {
            chkpt
            recv(rank - 1, tmp)
            chkpt
            chkpt
        }
    }
    chkpt
}`, `
program lone_in_body
var a, tmp, j
proc {
    while j < 1 {
        chkpt
    }
    if rank == 0 {
        chkpt
        send(1, a)
    } else {
        if rank == 1 {
            recv(0, tmp)
        }
        chkpt
    }
    while j < 2 {
        while j < 1 {
            chkpt
            chkpt
        }
    }
}`, `
program sibling_behind_inner_if
var a, tmp
proc {
    if rank == 0 {
        chkpt
        chkpt
        send(1, a)
    } else {
        if rank == 1 {
            recv(0, tmp)
        }
        chkpt
        work(1)
        chkpt
    }
}`,
}

// TestEnsureMatchesReference holds Ensure to the reference: the same
// Result — program, moves with their reasons, orderings, violations,
// equalized statements, iteration count, enumeration, and the error when
// the iteration bound cuts the fixpoint short — and the same program and
// findings after every round on the way, in both modes.
func TestEnsureMatchesReference(t *testing.T) {
	progs := generatedPrograms(t)
	if len(progs) != 48 {
		t.Fatalf("testdata/generated.mpl holds %d programs, want 48", len(progs))
	}
	for name, p := range corpus.All() {
		progs[name] = p
	}
	for _, src := range handWritten {
		p, err := mpl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		progs[p.Name] = p
	}
	for seed := int64(1); seed <= 150; seed++ {
		p := corpus.Random(seed)
		progs[p.Name] = p
	}
	rounds := 0
	for name, p := range progs {
		for _, opts := range []Options{
			{PreserveLoops: true},
			{PreserveLoops: false},
			{PreserveLoops: true, MaxIterations: 2, Arena: &cfg.Arena{}},
		} {
			label := fmt.Sprintf("%s/preserve=%v/max=%d", name, opts.PreserveLoops, opts.MaxIterations)
			var want, got []roundView
			wantRes, wantErr := refEnsure(p, opts, func(p *mpl.Program, v []Violation, o []Ordering) {
				want = append(want, view(p, v, o))
			})
			gotRes, gotErr := ensureTapped(p, opts, func(p *mpl.Program, a *analysis) {
				got = append(got, view(p, a.violations, a.orderings))
			})
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
			}
			for i := range want {
				if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s: round %d differs\ngot:  %+v\nwant: %+v", label, i, got[min(i, len(got)-1)], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d rounds, reference %d", label, len(got), len(want))
			}
			rounds += len(got)
			if wantRes == nil {
				if gotRes != nil {
					t.Fatalf("%s: a result beside the error, reference none", label)
				}
				continue
			}
			if g, w := mpl.Format(gotRes.Program), mpl.Format(wantRes.Program); g != w {
				t.Fatalf("%s: program differs\ngot:\n%s\nwant:\n%s", label, g, w)
			}
			gotRes.Program, wantRes.Program = nil, nil
			// QuietSends is not Phase III's: core's and verify's elision tests hold it.
			gotRes.QuietSends = 0
			if len(gotRes.Residual) == 0 { // an emptied buffer, where the reference has nil
				gotRes.Residual = nil
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("%s: result differs\ngot:  %+v\nwant: %+v", label, gotRes, wantRes)
			}
		}
	}
	t.Logf("%d programs, %d rounds compared", len(progs), rounds)
}
