package liveness_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dataflow"
	"repro/internal/liveness"
	"repro/internal/mpl"
	"repro/internal/verify"
)

// referenceSolve is the solver liveness.Compute had before it became a walk
// of the AST: the round-robin fixpoint over the program's CFG, with a
// NewBitset per CFG node and set, and per site "collect the live names,
// then sort.Strings". It is kept as the independent derivation the walk is
// compared to.
func referenceSolve(t *testing.T, p *mpl.Program) map[int][]string {
	t.Helper()
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	tbl := dataflow.NewVarTable(p)
	nvars := tbl.Len()
	nnodes := len(g.Nodes)

	use := make([]cfg.Bitset, nnodes)
	def := make([]cfg.Bitset, nnodes)
	liveIn := make([]cfg.Bitset, nnodes)
	for id := 0; id < nnodes; id++ {
		use[id] = cfg.NewBitset(nvars)
		def[id] = cfg.NewBitset(nvars)
		liveIn[id] = cfg.NewBitset(nvars)
	}
	addUses := func(set cfg.Bitset, e mpl.Expr) {
		mpl.WalkExpr(e, func(x mpl.Expr) bool {
			if id, ok := x.(*mpl.Ident); ok {
				if slot, ok := tbl.Index[id.Name]; ok {
					set.Set(slot)
				}
			}
			return true
		})
	}
	for _, n := range g.Nodes {
		switch n.Kind {
		case cfg.KindCompute:
			switch st := n.Stmt.(type) {
			case *mpl.Assign:
				addUses(use[n.ID], st.X)
				def[n.ID].Set(tbl.Index[st.Name])
			case *mpl.Work:
				addUses(use[n.ID], st.Amount)
			}
		case cfg.KindBranch:
			switch st := n.Stmt.(type) {
			case *mpl.While:
				addUses(use[n.ID], st.Cond)
			case *mpl.If:
				addUses(use[n.ID], st.Cond)
			}
		case cfg.KindSend:
			st := n.Stmt.(*mpl.Send)
			addUses(use[n.ID], st.Dest)
			use[n.ID].Set(tbl.Index[st.Var])
		case cfg.KindRecv:
			st := n.Stmt.(*mpl.Recv)
			addUses(use[n.ID], st.Src)
		case cfg.KindBcast:
			st := n.Stmt.(*mpl.Bcast)
			addUses(use[n.ID], st.Root)
			use[n.ID].Set(tbl.Index[st.Var])
		case cfg.KindReduce:
			st := n.Stmt.(*mpl.Reduce)
			addUses(use[n.ID], st.Root)
			use[n.ID].Set(tbl.Index[st.Var])
		}
	}

	for slot := 0; slot < nvars; slot++ {
		liveIn[g.Exit].Set(slot)
	}
	out := cfg.NewBitset(nvars)
	tmp := cfg.NewBitset(nvars)
	for changed := true; changed; {
		changed = false
		for id := nnodes - 1; id >= 0; id-- {
			if id == g.Exit {
				continue
			}
			out.Zero()
			for _, e := range g.Succs(id) {
				out.UnionWith(liveIn[e.To])
			}
			for i := range tmp {
				tmp[i] = out[i] &^ def[id][i]
			}
			tmp.UnionWith(use[id])
			if !tmp.Equal(liveIn[id]) {
				liveIn[id].CopyFrom(tmp)
				changed = true
			}
		}
	}
	sets := make(map[int][]string)
	for _, n := range g.Nodes {
		if n.Kind != cfg.KindChkpt {
			continue
		}
		var names []string
		for slot := 0; slot < nvars; slot++ {
			if liveIn[n.ID].Has(slot) {
				names = append(names, tbl.Names[slot])
			}
		}
		sort.Strings(names)
		sets[n.Stmt.ID()] = names
	}
	return sets
}

// referencePrograms is every corpus program, the 8 large programs of the
// analysis workload and 200 generated ones — each as written, as
// transformed, and both of those with every variable redefined at the
// end — plus the back-edge nests.
func referencePrograms(t *testing.T) map[string]*mpl.Program {
	t.Helper()
	progs := make(map[string]*mpl.Program)
	for name, p := range corpus.All() {
		progs[name] = p
	}
	for seed := int64(1); seed <= 8; seed++ {
		progs[fmt.Sprintf("large_s%d", seed)] = verify.GenerateLarge(seed, 6)
	}
	for seed := int64(1); seed <= 200; seed++ {
		progs[fmt.Sprintf("gen_%d", seed)] = verify.Generate(seed)
	}
	// Variants go into a map of their own: entries added to a map while
	// ranging over it may or may not be visited.
	variants := make(map[string]*mpl.Program)
	for name, p := range progs {
		rep, err := core.Transform(p, core.DefaultConfig)
		if err != nil {
			t.Fatalf("%s: transform: %v", name, err)
		}
		variants[name] = p
		variants[name+"/transformed"] = rep.Program
	}
	progs = make(map[string]*mpl.Program)
	for name, p := range variants {
		progs[name] = p
		progs[name+"/killed"] = killAtEnd(p)
	}
	for _, useLevel := range []int{1, 2, 3} {
		for _, chkptLast := range []bool{false, true} {
			for _, kill := range []bool{false, true} {
				progs[fmt.Sprintf("nest_%d_%v_%v", useLevel, chkptLast, kill)] = backEdgeNest(useLevel, chkptLast, kill)
			}
		}
	}
	// Nothing is live at either site: nil manifests.
	progs["nothing_live"] = mpl.NewBuilder("nothing_live").Vars("a").
		Chkpt().Assign("a", mpl.Int(1)).MustProgram()
	progs["no_vars"] = mpl.NewBuilder("no_vars").Chkpt().MustProgram()
	return progs
}

// killAtEnd returns p with every variable assigned 0 at the end. The end is
// live in everything, so in a program as written the set live after a loop
// tends to hold every variable already, and what its back edge carries
// makes no difference; here it is all there is.
func killAtEnd(p *mpl.Program) *mpl.Program {
	q := mpl.Clone(p)
	id := q.MaxStmtID()
	q.Body = slices.Clip(q.Body) // shared with p: the appends must not write its spare capacity
	for _, v := range q.Vars {
		id++
		q.Body = append(q.Body, &mpl.Assign{StmtBase: mpl.StmtBase{StmtID: id}, Name: v, X: mpl.Int(0)})
	}
	return q
}

// requireReference fails unless Compute's manifests are exactly what the
// reference solver computes — same sites, same names, same order, and nil
// where it has nil — each capacity-clipped to its length. It returns the
// manifests.
func requireReference(t *testing.T, name string, p *mpl.Program) map[int][]string {
	t.Helper()
	res, err := liveness.Compute(p)
	if err != nil {
		t.Fatalf("%s: Compute: %v", name, err)
	}
	if want := referenceSolve(t, p); !reflect.DeepEqual(res.Live, want) {
		t.Errorf("%s: Live = %v, reference %v", name, res.Live, want)
	}
	for id, m := range res.Live {
		if cap(m) != len(m) {
			t.Errorf("%s: manifest of #%d has capacity %d beyond its %d names: an append would overwrite the next site's", name, id, cap(m), len(m))
		}
	}
	return res.Live
}

// TestMatchesReferenceSolver holds Compute to the reference solver on every
// reference program.
func TestMatchesReferenceSolver(t *testing.T) {
	sites, nilManifests := 0, 0
	for name, p := range referencePrograms(t) {
		for _, m := range requireReference(t, name, p) {
			sites++
			if m == nil {
				nilManifests++
			}
		}
	}
	if sites < 1000 || nilManifests == 0 {
		t.Errorf("compared %d sites, %d of them nil manifests: the reference set lost its coverage", sites, nilManifests)
	}
}

// backEdgeNest is three nested loops with a checkpoint in the innermost and
// the only read of x at the top of loop useLevel's body (1 outermost). From
// the checkpoint that read is reached across the back edges of the loops
// from the innermost out to useLevel's: two back edges for useLevel 2,
// three for 1. The end of the program redefines x, so nothing else keeps
// it live. chkptLast puts the checkpoint at the bottom of the innermost
// body instead of the top; kill redefines x in the middle loop behind the
// innermost, which cuts every such path, so x is dead at the checkpoint.
func backEdgeNest(useLevel int, chkptLast, kill bool) *mpl.Program {
	b := mpl.NewBuilder("nest").Vars("x", "a", "i1", "i2", "i3")
	use := func(b *mpl.Builder, level int) {
		if level == useLevel {
			b.Assign("a", mpl.Add(mpl.V("a"), mpl.V("x")))
		}
	}
	loop := func(b *mpl.Builder, ctr string, body func(*mpl.Builder)) {
		b.Assign(ctr, mpl.Int(0))
		b.While(mpl.Lt(mpl.V(ctr), mpl.Int(2)), func(b *mpl.Builder) {
			body(b)
			b.Assign(ctr, mpl.Add(mpl.V(ctr), mpl.Int(1)))
		})
	}
	loop(b, "i1", func(b *mpl.Builder) {
		use(b, 1)
		loop(b, "i2", func(b *mpl.Builder) {
			use(b, 2)
			loop(b, "i3", func(b *mpl.Builder) {
				if !chkptLast {
					b.Chkpt()
				}
				use(b, 3)
				if chkptLast {
					b.Chkpt()
				}
			})
			if kill {
				b.Assign("x", mpl.V("i2"))
			}
		})
	})
	b.Assign("x", mpl.Int(0))
	return b.MustProgram()
}

// TestBackEdgeNests holds Compute to the reference solver, and to what the
// nests are built to show, where x reaches a checkpoint three loops deep
// only around two or three back edges — the paths a walk gets wrong if it
// makes one pass per loop, records a site before its loop's header has
// converged, or lets an inner loop's header miss what an enclosing loop's
// later pass brings.
func TestBackEdgeNests(t *testing.T) {
	for _, useLevel := range []int{1, 2, 3} {
		for _, chkptLast := range []bool{false, true} {
			for _, kill := range []bool{false, true} {
				name := fmt.Sprintf("use at level %d, chkpt last %v, kill %v", useLevel, chkptLast, kill)
				// A use in the innermost body is reached without leaving
				// that loop, where the kill cannot cut it.
				wantX := !kill || useLevel == 3
				for _, m := range requireReference(t, name, backEdgeNest(useLevel, chkptLast, kill)) {
					if got := slices.Contains(m, "x"); got != wantX {
						t.Errorf("%s: x in manifest %v = %v, want %v", name, m, got, wantX)
					}
				}
			}
		}
	}
}

// TestDeepNest runs 40 nested loops, each using a variable of its own at
// the top of its body and a checkpoint at the bottom of the innermost. A
// loop that restarted its header from scratch on every visit would walk
// the innermost body about 2^40 times; resuming from the last header, it is
// walked once per enclosing loop and pass.
func TestDeepNest(t *testing.T) {
	const depth = 40
	b := mpl.NewBuilder("deep")
	var nest func(b *mpl.Builder, d int)
	nest = func(b *mpl.Builder, d int) {
		if d == depth {
			b.Chkpt()
			return
		}
		v := fmt.Sprintf("v%d", d)
		b.Vars(v)
		b.While(mpl.Lt(mpl.Int(d), mpl.Int(1)), func(b *mpl.Builder) {
			b.Assign("acc", mpl.Add(mpl.V("acc"), mpl.V(v)))
			nest(b, d+1)
		})
		b.Assign(v, mpl.Int(0))
	}
	b.Vars("acc")
	nest(b, 0)
	live := requireReference(t, "deep", b.MustProgram())
	for _, m := range live {
		if len(m) != depth+1 {
			t.Errorf("manifest %v, want acc and all %d loop variables", m, depth)
		}
	}
}

// FuzzLivenessReference holds Compute to the reference solver on the
// generated program of any seed, as written and as transformed, each also
// with every variable redefined at the end. Run with
// `go test -fuzz FuzzLivenessReference`; the seed corpus runs under plain
// `go test`.
func FuzzLivenessReference(f *testing.F) {
	for _, seed := range []int64{1, 17, 123, -9} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		p := verify.Generate(seed)
		rep, err := core.Transform(p, core.DefaultConfig)
		if err != nil {
			t.Fatalf("transform: %v", err)
		}
		for _, q := range []*mpl.Program{p, rep.Program} {
			requireReference(t, q.Name, q)
			requireReference(t, q.Name+"/killed", killAtEnd(q))
		}
	})
}
