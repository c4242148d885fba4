package liveness

import (
	"reflect"
	"testing"

	"repro/internal/mpl"
)

// chkptIDs returns the checkpoint statement ids in pre-order body order, so
// tests can key expected live sets by checkpoint position.
func chkptIDs(p *mpl.Program) []int {
	var ids []int
	mpl.Walk(p.Body, func(s mpl.Stmt) bool {
		if _, ok := s.(*mpl.Chkpt); ok {
			ids = append(ids, s.ID())
		}
		return true
	})
	return ids
}

// TestComputeRejectsUndeclaredVar hands Compute built programs that skipped
// mpl.Check and send a variable they never declare or assign. The send's
// slot used to be read unchecked: index out of range with no variables, and
// slot 0 — manifest [a] — with one.
func TestComputeRejectsUndeclaredVar(t *testing.T) {
	body := func() []mpl.Stmt {
		return []mpl.Stmt{
			&mpl.Chkpt{StmtBase: mpl.StmtBase{StmtID: 0}},
			&mpl.Send{StmtBase: mpl.StmtBase{StmtID: 1}, Dest: mpl.Int(0), Var: "x"},
		}
	}
	for _, p := range []*mpl.Program{
		{Name: "no_vars", Body: body()},
		{Name: "var_a", Vars: []string{"a"}, Body: body()},
	} {
		res, err := Compute(p)
		if err == nil {
			t.Errorf("%s: Compute = %v, want an error", p.Name, res.Live)
			continue
		}
		if want := `liveness: send->0 (#1): undeclared variable "x"`; err.Error() != want {
			t.Errorf("%s: error %q, want %q", p.Name, err, want)
		}
	}
}

func TestComputeLiveSets(t *testing.T) {
	n3 := mpl.Lt(mpl.V("iter"), mpl.Int(3))
	cases := []struct {
		name string
		prog *mpl.Program
		// want[i] is the expected live set of the i-th checkpoint in
		// pre-order body order.
		want [][]string
	}{
		{
			// A loop that redefines a before using it: a is dead at the
			// checkpoint (every path from the checkpoint kills it first),
			// while the accumulator and the loop counter stay live.
			name: "loop redefine-then-use",
			prog: mpl.NewBuilder("redefine").
				Vars("a", "b", "iter").
				Assign("iter", mpl.Int(0)).
				While(n3, func(b *mpl.Builder) {
					b.Chkpt()
					b.Assign("a", mpl.Mul(mpl.V("iter"), mpl.Int(2)))
					b.Assign("b", mpl.Add(mpl.V("b"), mpl.V("a")))
					b.Assign("iter", mpl.Add(mpl.V("iter"), mpl.Int(1)))
				}).
				MustProgram(),
			want: [][]string{{"b", "iter"}},
		},
		{
			// v is defined only by recv. Under guarded-boundary semantics an
			// out-of-range receive is a no-op that keeps the old value, so
			// recv must not kill: v stays live at the checkpoint.
			name: "recv-only-defined variable stays live",
			prog: mpl.NewBuilder("recvonly").
				Vars("v", "iter").
				Assign("iter", mpl.Int(0)).
				While(n3, func(b *mpl.Builder) {
					b.Chkpt()
					b.Recv(mpl.Sub(mpl.Rank(), mpl.Int(1)), "v")
					b.Send(mpl.Add(mpl.Rank(), mpl.Int(1)), "v")
					b.Assign("iter", mpl.Add(mpl.V("iter"), mpl.Int(1)))
				}).
				MustProgram(),
			want: [][]string{{"iter", "v"}},
		},
		{
			// ID-dependent branches: each arm checkpoints, then kills a
			// different variable before its next use, so the two sites have
			// different live sets even though they share the loop.
			name: "ID-dependent branches differ per arm",
			prog: mpl.NewBuilder("idbranch").
				Vars("x", "y", "iter").
				Assign("iter", mpl.Int(0)).
				While(n3, func(b *mpl.Builder) {
					b.IfElse(mpl.Eq(mpl.Mod(mpl.Rank(), mpl.Int(2)), mpl.Int(0)),
						func(b *mpl.Builder) {
							b.Chkpt()
							b.Assign("y", mpl.Add(mpl.V("x"), mpl.Int(1)))
							b.Send(mpl.Add(mpl.Rank(), mpl.Int(1)), "y")
						},
						func(b *mpl.Builder) {
							b.Chkpt()
							b.Assign("x", mpl.Add(mpl.V("y"), mpl.Int(2)))
							b.Send(mpl.Sub(mpl.Rank(), mpl.Int(1)), "x")
						})
					b.Assign("iter", mpl.Add(mpl.V("iter"), mpl.Int(1)))
				}).
				MustProgram(),
			want: [][]string{{"iter", "x"}, {"iter", "y"}},
		},
		{
			// A temporary folded into the accumulator before the checkpoint
			// and redefined on both the back edge and the exit path is dead
			// at the checkpoint — the canonical payload the pruning drops.
			name: "dead-after-checkpoint temporary",
			prog: mpl.NewBuilder("deadtmp").
				Vars("tmp", "acc", "iter").
				Assign("iter", mpl.Int(0)).
				While(n3, func(b *mpl.Builder) {
					b.Assign("tmp", mpl.Mul(mpl.V("acc"), mpl.Int(2)))
					b.Assign("acc", mpl.Add(mpl.V("acc"), mpl.V("tmp")))
					b.Chkpt()
					b.Assign("iter", mpl.Add(mpl.V("iter"), mpl.Int(1)))
				}).
				Assign("tmp", mpl.Int(0)).
				MustProgram(),
			want: [][]string{{"acc", "iter"}},
		},
		{
			// Same shape WITHOUT the trailing kill: the final environment is
			// the program's observable output, so the exit node is live in
			// everything and tmp must stay in the manifest.
			name: "exit keeps every variable live",
			prog: mpl.NewBuilder("exitlive").
				Vars("tmp", "acc", "iter").
				Assign("iter", mpl.Int(0)).
				While(n3, func(b *mpl.Builder) {
					b.Assign("tmp", mpl.Mul(mpl.V("acc"), mpl.Int(2)))
					b.Assign("acc", mpl.Add(mpl.V("acc"), mpl.V("tmp")))
					b.Chkpt()
					b.Assign("iter", mpl.Add(mpl.V("iter"), mpl.Int(1)))
				}).
				MustProgram(),
			// tmp is in the manifest ONLY because exit observes it: no
			// statement ever reads it again.
			want: [][]string{{"acc", "iter", "tmp"}},
		},
		{
			// Use-before-def across the while back edge: at a checkpoint at
			// the BOTTOM of the loop, s is live only because the next
			// iteration reads it before the bottom-of-body redefinition —
			// liveness must propagate around the back edge. d is killed at
			// the loop top before any use, and both are killed on the exit
			// path, so only the back edge keeps s alive.
			name: "use-before-def across while back edge",
			prog: mpl.NewBuilder("backedge").
				Vars("s", "d", "iter").
				Assign("iter", mpl.Int(0)).
				While(n3, func(b *mpl.Builder) {
					b.Assign("d", mpl.Add(mpl.V("s"), mpl.Int(1)))
					b.Assign("s", mpl.Mul(mpl.V("d"), mpl.Int(2)))
					b.Assign("iter", mpl.Add(mpl.V("iter"), mpl.Int(1)))
					b.Chkpt()
				}).
				Assign("s", mpl.Int(0)).
				Assign("d", mpl.Int(0)).
				MustProgram(),
			want: [][]string{{"iter", "s"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Compute(tc.prog)
			if err != nil {
				t.Fatalf("Compute: %v", err)
			}
			ids := chkptIDs(tc.prog)
			if len(ids) != len(tc.want) {
				t.Fatalf("program has %d checkpoint sites, test expects %d", len(ids), len(tc.want))
			}
			if len(res.Live) != len(ids) {
				t.Errorf("Live covers %d sites, want %d", len(res.Live), len(ids))
			}
			for i, id := range ids {
				if got := res.Live[id]; !reflect.DeepEqual(got, tc.want[i]) {
					t.Errorf("site %d (stmt #%d): live set %v, want %v", i, id, got, tc.want[i])
				}
			}
		})
	}
}
