// Package liveness computes live-variable sets at checkpoint sites — the
// backward dataflow pass that turns "persist the whole environment" into
// "persist only what recovery can still observe" (ROADMAP item 2, after
// AutoCheck's data-dependency pruning, arXiv 2408.06082).
//
// The analysis is the textbook backward may-analysis over the program's
// CFG, with two deliberate deviations forced by this system's semantics:
//
//   - The exit node is live in EVERY declared-or-assigned variable, not the
//     empty set. A run's observable output is the full final environment
//     (Result.FinalVars compares every variable), so any variable that can
//     reach program exit without being redefined must survive a restore.
//
//   - recv/bcast/reduce never kill their target variable. Under the
//     guarded-boundary semantics an out-of-range peer makes the operation a
//     no-op that leaves the target unchanged, so the pre-operation value
//     can flow through; treating the receive as a definition would prune a
//     variable the no-op path still needs. They do not use the target
//     either (in-range, the old value is overwritten unread; out-of-range,
//     liveness flows through from the successors) — except reduce and
//     bcast, whose root reads the variable it contributes/broadcasts, so
//     both conservatively count the target as used.
//
// Assignment is the only killing statement. Variables pruned from a
// checkpoint therefore restore safely to their declared initial value
// (zero, per mpl.NewEnv): a pruned variable is dead at the site, meaning
// every path to exit redefines it before any use.
package liveness

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/mpl"
)

// Result holds the per-checkpoint-site live sets of one program.
type Result struct {
	// Table is the dense variable universe the analysis ran over — shared
	// with internal/dataflow so both passes agree on what a "variable" is.
	Table *dataflow.VarTable
	// Live maps each checkpoint statement's ID to the sorted names of the
	// variables live at (i.e. just after) that checkpoint. This is the
	// snapshot manifest for the site: persisting exactly these variables
	// and restoring the rest to zero is equivalent to a full-env snapshot.
	// A site where nothing is live has a nil manifest; all manifests are
	// cut from one slice, each capped at its length.
	Live map[int][]string
}

// Compute runs the analysis on a program. It allocates per program, not per
// CFG node or per site: every bit set is carved from one slab, every
// manifest from one slice.
func Compute(p *mpl.Program) (*Result, error) {
	g, err := cfg.Build(p)
	if err != nil {
		return nil, fmt.Errorf("liveness: %w", err)
	}
	tbl := dataflow.NewVarTable(p)
	nvars := tbl.Len()
	nnodes := len(g.Nodes)

	// One slab: the use, def and live-in set of every node, then the
	// fixpoint's two scratch sets.
	words := (nvars + 63) / 64
	slab := make([]uint64, (3*nnodes+2)*words)
	set := func(i int) cfg.Bitset { return slab[i*words : (i+1)*words] }
	use := func(id int) cfg.Bitset { return set(3 * id) }
	def := func(id int) cfg.Bitset { return set(3*id + 1) }
	liveIn := func(id int) cfg.Bitset { return set(3*id + 2) }
	out, tmp := set(3*nnodes), set(3*nnodes+1)
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
				addUses(use(n.ID), st.X)
				def(n.ID).Set(tbl.Index[st.Name])
			case *mpl.Work:
				addUses(use(n.ID), st.Amount)
			}
		case cfg.KindBranch:
			switch st := n.Stmt.(type) {
			case *mpl.While:
				addUses(use(n.ID), st.Cond)
			case *mpl.If:
				addUses(use(n.ID), st.Cond)
			}
		case cfg.KindSend:
			st := n.Stmt.(*mpl.Send)
			addUses(use(n.ID), st.Dest)
			use(n.ID).Set(tbl.Index[st.Var])
		case cfg.KindRecv:
			// Guarded-boundary no-op receives keep the old value: no kill,
			// no use of the target (see the package comment).
			st := n.Stmt.(*mpl.Recv)
			addUses(use(n.ID), st.Src)
		case cfg.KindBcast:
			st := n.Stmt.(*mpl.Bcast)
			addUses(use(n.ID), st.Root)
			use(n.ID).Set(tbl.Index[st.Var])
		case cfg.KindReduce:
			st := n.Stmt.(*mpl.Reduce)
			addUses(use(n.ID), st.Root)
			use(n.ID).Set(tbl.Index[st.Var])
		case cfg.KindEntry, cfg.KindExit, cfg.KindChkpt:
			// No uses, no defs.
		}
	}

	// Backward fixpoint: liveOut(n) = ∪ liveIn(succ); liveIn(n) =
	// use(n) ∪ (liveOut(n) − def(n)). Node ids are assigned in program
	// order, so sweeping ids high-to-low converges in a couple of rounds.
	// A checkpoint node has no use/def, so its live-out equals its live-in;
	// that set — the variables observable after the checkpoint resumes — is
	// the site's manifest.
	// Exit is live in everything: the final environment is the program's
	// observable output.
	for slot := 0; slot < nvars; slot++ {
		liveIn(g.Exit).Set(slot)
	}
	for changed := true; changed; {
		changed = false
		for id := nnodes - 1; id >= 0; id-- {
			if id == g.Exit {
				continue
			}
			out.Zero()
			for _, e := range g.Succs(id) {
				out.UnionWith(liveIn(e.To))
			}
			tmp.CopyFrom(out)
			tmp.AndNotWith(def(id))
			tmp.UnionWith(use(id))
			if !tmp.Equal(liveIn(id)) {
				liveIn(id).CopyFrom(tmp)
				changed = true
			}
		}
	}

	// Manifests list names in sorted order: the slots are put in name order
	// once and every site walks them, instead of sorting at every site.
	order := make([]int, nvars)
	for slot := range order {
		order[slot] = slot
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(tbl.Names[a], tbl.Names[b]) })
	nsites, total := 0, 0
	for _, n := range g.Nodes {
		if n.Kind == cfg.KindChkpt {
			nsites++
			total += liveIn(n.ID).Count()
		}
	}
	sets := make(map[int][]string, nsites)
	names := make([]string, total)
	for _, n := range g.Nodes {
		if n.Kind != cfg.KindChkpt {
			continue
		}
		// A site where nothing is live keeps a nil manifest, not an empty
		// one.
		var manifest []string
		if live := liveIn(n.ID); live.Count() > 0 {
			manifest = names[:0:live.Count()]
			for _, slot := range order {
				if live.Has(slot) {
					manifest = append(manifest, tbl.Names[slot])
				}
			}
			names = names[len(manifest):]
		}
		sets[n.Stmt.ID()] = manifest
	}
	return &Result{Table: tbl, Live: sets}, nil
}
