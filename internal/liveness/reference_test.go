package liveness_test

import (
	"fmt"
	"reflect"
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

// referenceSolve is the solver liveness.Compute had before its sets were
// carved from one slab and its manifests from one slice: a NewBitset per
// CFG node and set, and per site "collect the live names, then
// sort.Strings". It is kept as the reference the package is compared to.
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
			tmp.CopyFrom(out)
			tmp.AndNotWith(def[id])
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

// referencePrograms is every corpus program and the 8 large programs of
// the analysis workload, each as written and as transformed.
func referencePrograms(t *testing.T) map[string]*mpl.Program {
	t.Helper()
	progs := make(map[string]*mpl.Program)
	for name, p := range corpus.All() {
		progs[name] = p
	}
	for seed := int64(1); seed <= 8; seed++ {
		progs[fmt.Sprintf("large_s%d", seed)] = verify.GenerateLarge(seed, 6)
	}
	for name, p := range progs {
		rep, err := core.Transform(p, core.DefaultConfig)
		if err != nil {
			t.Fatalf("%s: transform: %v", name, err)
		}
		progs[name+"/transformed"] = rep.Program
	}
	// Nothing is live at either site: nil manifests.
	progs["nothing_live"] = mpl.NewBuilder("nothing_live").Vars("a").
		Chkpt().Assign("a", mpl.Int(1)).MustProgram()
	progs["no_vars"] = mpl.NewBuilder("no_vars").Chkpt().MustProgram()
	return progs
}

// TestMatchesReferenceSolver requires Live to be exactly what
// the reference solver computes — same sites, same names, same order, and
// nil where it has nil — on every reference program.
func TestMatchesReferenceSolver(t *testing.T) {
	sites, nilManifests := 0, 0
	for name, p := range referencePrograms(t) {
		res, err := liveness.Compute(p)
		if err != nil {
			t.Fatalf("%s: Compute: %v", name, err)
		}
		if want := referenceSolve(t, p); !reflect.DeepEqual(res.Live, want) {
			t.Errorf("%s: Live = %v, reference %v", name, res.Live, want)
		}
		for id, m := range res.Live {
			sites++
			if m == nil {
				nilManifests++
			}
			if cap(m) != len(m) {
				t.Errorf("%s: manifest of #%d has capacity %d beyond its %d names: an append would overwrite the next site's", name, id, cap(m), len(m))
			}
		}
	}
	if sites < 100 || nilManifests == 0 {
		t.Errorf("compared %d sites, %d of them nil manifests: the reference set lost its coverage", sites, nilManifests)
	}
}
