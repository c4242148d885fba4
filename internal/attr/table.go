package attr

import (
	"slices"

	"repro/internal/mpl"
)

// This file is the solver's memoized form. A Table precomputes, once per
// node, what Phase II asks about it: a per-n bitmask of the ranks where
// the path attribute holds, and a per-(n, rank) value table for the
// parameter, read with no Eval call. TestTableEquivalence holds the tables
// to a test-side enumeration (CanMatch) that evaluates every probe.

// Parameter values are stored as int8. A rank is in [0, 64) — hi ≤ 64 is
// the representation's limit — so a value outside that range can equal no
// rank, and the two negative codes cannot collide with a value that can:
//
//	tableNoValue — no equation at this rank: wildcard parameters
//	               everywhere, and ranks where evaluation errs (EvalAt
//	               reports ok=false, which matching treats as "no
//	               constraint");
//	tableNever   — the parameter evaluates, to something no rank equals
//	               (rank-1 at rank 0, nproc, a large constant): an equation
//	               nothing satisfies, NOT the absence of one.
const (
	tableNoValue = int8(-1)
	tableNever   = int8(-2)
)

// Table is the precomputed view of one node's (path attribute, parameter)
// pair over the solver's bounded enumeration. Tables of one batch may share
// rows; a Table is read-only once built.
type Table struct {
	lo, hi int
	// hold[n-lo] has bit p set ⇔ the predicate holds at (p, n).
	hold []uint64
	// val is triangular: the row for n holds the n values at p < n, rows in
	// n order (see valRow).
	val []int8
}

// tableSize returns the lengths of hold and val for the bounds.
func tableSize(lo, hi int) (rows, vals int) {
	return hi - lo + 1, (hi*(hi+1) - lo*(lo-1)) / 2
}

// valRow returns the parameter-value row for row i (n = lo+i).
func (t *Table) valRow(i int) []int8 {
	n := t.lo + i
	off := (n*(n-1) - t.lo*(t.lo-1)) / 2
	return t.val[off : off+n]
}

// Batch is the memory a batch of tables is built in. TablesInto reuses it
// whole: the tables of the previous batch are gone.
type Batch struct {
	tables []Table
	same   []int
	hold   []uint64
	val    []int8
}

// TablesInto precomputes, in b's memory, one Table per entry of nodes, for
// the pair (prs[nodes[i]], params[nodes[i]]) — the matcher's batch, one
// table per communication node. Equal predicates share one set of hold
// masks and equal parameters one set of value rows: the communication
// statements of an SPMD program sit under a handful of rank guards and
// address a handful of neighbours, so most of the batch is found, not
// evaluated. The result is nil when the bounds exceed the table
// representation (callers evaluate instead).
func (s Solver) TablesInto(b *Batch, prs []Predicate, params []Param, nodes []int) []Table {
	lo, hi := s.Bounds()
	if hi > 64 || len(nodes) == 0 {
		return nil
	}
	// same[i] / same[k+i] is the first entry with i's predicate / parameter.
	k := len(nodes)
	b.same = slices.Grow(b.same[:0], 2*k)[:2*k]
	same := b.same
	npr, nparam := 0, 0
	for i, node := range nodes {
		j := 0
		for !prs[nodes[j]].Equal(prs[node]) {
			j++
		}
		if same[i] = j; j == i {
			npr++
		}
		for j = 0; !equalParams(params[nodes[j]], params[node]); j++ {
		}
		if same[k+i] = j; j == i {
			nparam++
		}
	}
	rows, vals := tableSize(lo, hi)
	b.hold = slices.Grow(b.hold[:0], npr*rows)[:npr*rows]
	b.val = slices.Grow(b.val[:0], nparam*vals)[:nparam*vals]
	b.tables = slices.Grow(b.tables[:0], k)[:k]
	hold, val, ts := b.hold, b.val, b.tables
	clear(hold)
	for i, node := range nodes {
		t := &ts[i]
		t.lo, t.hi = lo, hi
		if j := same[i]; j < i {
			t.hold = ts[j].hold
		} else {
			t.hold, hold = hold[:rows:rows], hold[rows:]
			for n := lo; n <= hi; n++ {
				for p := 0; p < n; p++ {
					if prs[node].HoldsAt(p, n) {
						t.hold[n-lo] |= 1 << uint(p)
					}
				}
			}
		}
		if j := same[k+i]; j < i {
			t.val = ts[j].val
			continue
		}
		t.val, val = val[:vals:vals], val[vals:]
		for n := lo; n <= hi; n++ {
			row := t.valRow(n - lo)
			for p := range row {
				switch v, ok := params[node].EvalAt(p, n); {
				case !ok:
					row[p] = tableNoValue
				case v < 0 || v >= 64:
					row[p] = tableNever
				default:
					row[p] = int8(v)
				}
			}
		}
	}
	return ts
}

// Equal reports whether two predicates are the same conjunction, term by
// term.
func (pr Predicate) Equal(o Predicate) bool {
	if len(pr) != len(o) {
		return false
	}
	for i := range pr {
		if pr[i].Want != o[i].Want || !mpl.EqualExpr(pr[i].Cond, o[i].Cond) {
			return false
		}
	}
	return true
}

func equalParams(a, b Param) bool {
	return a.Wildcard == b.Wildcard && mpl.EqualExpr(a.Expr, b.Expr)
}

// Holds reports whether the node's path attribute holds at process p of n.
func (t *Table) Holds(p, n int) bool { return t.hold[n-t.lo]&(1<<uint(p)) != 0 }

// Peer returns the node's parameter at process p of n: a rank, or −1 when
// it evaluates to a value no rank equals. ok is false when it has no value
// there: a wildcard, or an evaluation error at p.
func (t *Table) Peer(p, n int) (peer int, ok bool) {
	switch v := t.valRow(n - t.lo)[p]; v {
	case tableNoValue:
		return 0, false
	case tableNever:
		return -1, true
	default:
		return int(v), true
	}
}
