// Package liveness computes live-variable sets at checkpoint sites — the
// backward dataflow pass that turns "persist the whole environment" into
// "persist only what recovery can still observe" (after AutoCheck's
// data-dependency pruning, arXiv 2408.06082).
//
// The analysis is the textbook backward may-analysis, solved by one
// backward walk of the structured program (DESIGN decision 31): an if's
// live-in is its condition's uses joined with both arms', and a while's
// header is iterated until it stops growing. Two deliberate deviations are
// forced by this system's semantics:
//
//   - The program's end is live in EVERY declared-or-assigned variable, not
//     the empty set. A run's observable output is the full final
//     environment (Result.FinalVars compares every variable), so any
//     variable that can reach the end without being redefined must survive
//     a restore.
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
// statement or per site: every bit set is carved from one slab, every
// manifest from one slice. A send of a variable the program neither
// declares nor assigns is an error.
func Compute(p *mpl.Program) (*Result, error) {
	tbl := dataflow.NewVarTable(p)
	var sh shape
	if err := sh.count(tbl, p.Body, 0); err != nil {
		return nil, err
	}
	nvars := tbl.Len()
	w := &walker{tbl: tbl, words: (nvars + 63) / 64}
	// One slab: a live set per nesting level, a header per while, a live
	// set per site, in that order.
	w.loops = sh.depth + 1
	w.sites = w.loops + sh.loops
	w.slab = make([]uint64, (w.sites+sh.sites)*w.words)
	// One []int: the slots in name order, then each site's statement id.
	ints := make([]int, nvars+sh.sites)
	order := ints[:nvars]
	w.ids = ints[nvars:]

	// The end of the program is live in everything: the final environment
	// is the program's observable output.
	end := w.set(0)
	for slot := 0; slot < nvars; slot++ {
		end.Set(slot)
	}
	w.walk(p.Body, end, 0)

	// Manifests list names in sorted order: the slots are put in name order
	// once and every site walks them, instead of sorting at every site.
	for slot := range order {
		order[slot] = slot
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(tbl.Names[a], tbl.Names[b]) })
	total := 0
	for k := range sh.sites {
		total += w.set(w.sites + k).Count()
	}
	sets := make(map[int][]string, sh.sites)
	names := make([]string, total)
	for k, id := range w.ids {
		// A site where nothing is live keeps a nil manifest, not an empty
		// one.
		var manifest []string
		if live := w.set(w.sites + k); live.Count() > 0 {
			manifest = names[:0:live.Count()]
			for _, slot := range order {
				if live.Has(slot) {
					manifest = append(manifest, tbl.Names[slot])
				}
			}
			names = names[len(manifest):]
		}
		sets[id] = manifest
	}
	return &Result{Table: tbl, Live: sets}, nil
}

// shape is what the walk's slab is sized by: the deepest body nesting, the
// number of while loops and the number of checkpoint sites.
type shape struct{ depth, loops, sites int }

// count adds body, nested depth deep, to the shape, and fails on a
// statement the walk could not index.
func (sh *shape) count(tbl *dataflow.VarTable, body []mpl.Stmt, depth int) error {
	sh.depth = max(sh.depth, depth)
	for _, s := range body {
		switch st := s.(type) {
		case *mpl.Assign, *mpl.Work, *mpl.Recv, *mpl.Bcast, *mpl.Reduce:
			// The table holds every variable a statement assigns or
			// receives into.
		case *mpl.Send:
			if _, ok := tbl.Index[st.Var]; !ok {
				return fmt.Errorf("liveness: %s: undeclared variable %q", mpl.DescribeStmt(s), st.Var)
			}
		case *mpl.Chkpt:
			sh.sites++
		case *mpl.While:
			sh.loops++
			if err := sh.count(tbl, st.Body, depth+1); err != nil {
				return err
			}
		case *mpl.If:
			if err := sh.count(tbl, st.Then, depth+1); err != nil {
				return err
			}
			if err := sh.count(tbl, st.Else, depth+1); err != nil {
				return err
			}
		default:
			return fmt.Errorf("liveness: unknown statement type %T", s)
		}
	}
	return nil
}

// walker is the backward walk's state. Sets are numbered: 0 … depth are
// the live sets of the nesting levels, then one header per while, then one
// live set per checkpoint site. Loops and sites are numbered in the order
// one pass of the walk meets them; loop and site count them, and a while
// winds both back before every pass over its body.
type walker struct {
	tbl          *dataflow.VarTable
	words        int
	slab         []uint64
	loops, sites int   // the first header set, the first site set
	loop, site   int   // the next while, the next site
	ids          []int // statement id of each site
}

func (w *walker) set(i int) cfg.Bitset { return w.slab[i*w.words : (i+1)*w.words] }

// walk turns live from the set live after body into the set live before
// it. The statements of body are depth bodies deep; a branch or loop among
// them borrows set depth+1 for its arms or its body.
func (w *walker) walk(body []mpl.Stmt, live cfg.Bitset, depth int) {
	for i := len(body) - 1; i >= 0; i-- {
		switch st := body[i].(type) {
		case *mpl.Assign:
			live.Clear(w.tbl.Index[st.Name])
			w.uses(live, st.X)
		case *mpl.Work:
			w.uses(live, st.Amount)
		case *mpl.Send:
			w.uses(live, st.Dest)
			live.Set(w.tbl.Index[st.Var])
		case *mpl.Recv:
			// Guarded-boundary no-op receives keep the old value: no kill,
			// no use of the target (see the package comment).
			w.uses(live, st.Src)
		case *mpl.Bcast:
			w.uses(live, st.Root)
			live.Set(w.tbl.Index[st.Var])
		case *mpl.Reduce:
			w.uses(live, st.Root)
			live.Set(w.tbl.Index[st.Var])
		case *mpl.Chkpt:
			// No use, no kill: what is live after the checkpoint is its
			// manifest. Every pass overwrites it, so the site keeps what the
			// converged pass of every enclosing loop found.
			w.set(w.sites + w.site).CopyFrom(live)
			w.ids[w.site] = st.ID()
			w.site++
		case *mpl.If:
			els := w.set(depth + 1)
			els.CopyFrom(live)
			w.walk(st.Then, live, depth+1)
			w.walk(st.Else, els, depth+1)
			live.UnionWith(els)
			w.uses(live, st.Cond)
		case *mpl.While:
			// The header H is live before the loop and after its body:
			// H = cond ∪ after ∪ before(body, H), iterated until H stops
			// growing. H is kept from the loop's previous visit (an
			// enclosing loop's earlier pass), where it can only have been
			// smaller, so a nested loop resumes instead of restarting.
			h := w.set(w.loops + w.loop)
			w.loop++
			h.UnionWith(live)
			w.uses(h, st.Cond)
			before := w.set(depth + 1)
			loop, site := w.loop, w.site
			for grew := true; grew; {
				w.loop, w.site = loop, site
				before.CopyFrom(h)
				w.walk(st.Body, before, depth+1)
				grew = grow(h, before)
			}
			live.CopyFrom(h)
		}
	}
}

// uses adds the variables e reads to live. Constants and the builtins have
// no slot.
func (w *walker) uses(live cfg.Bitset, e mpl.Expr) {
	switch x := e.(type) {
	case *mpl.Ident:
		if slot, ok := w.tbl.Index[x.Name]; ok {
			live.Set(slot)
		}
	case *mpl.Unary:
		w.uses(live, x.X)
	case *mpl.Binary:
		w.uses(live, x.L)
		w.uses(live, x.R)
	case *mpl.Call:
		for _, a := range x.Args {
			w.uses(live, a)
		}
	}
}

// grow adds o to h and reports whether h gained a member.
func grow(h, o cfg.Bitset) bool {
	grew := false
	for i, x := range o {
		if x&^h[i] != 0 {
			h[i] |= x
			grew = true
		}
	}
	return grew
}
