package storage

import "fmt"

// Namespace is a per-job view of a shared Store. A fleet runs thousands of
// jobs against one backing store; every job numbers its processes 0..n-1
// and its checkpoints from (index, instance) counters that restart at the
// same values, so two jobs sharing a store raw would collide on
// (proc, cfgIndex, instance) keys — ErrDuplicate for the loser, or worse,
// recovery lines assembled from a stranger's snapshots. A Namespace shifts
// the job's process numbers into a disjoint range of the backing store
// (job*nproc .. job*nproc+nproc-1) on the way in and shifts them back on
// the way out, so each job sees a private store while sharing the backing
// store's durability, contention, and fault behaviour.
//
// Namespace forwards the Scrubber interface when the backing store
// implements it. A scrub only quarantines records that FAIL integrity
// verification, so forwarding cannot garbage-collect a neighbour job's
// healthy state — and without forwarding, quarantine silently no-ops for
// every namespaced fleet job, leaving damaged keys permanently colliding
// with the checkpoints replay regenerates. The report is translated into
// the job's own process numbering; damage quarantined in OTHER jobs'
// ranges (healed as a side effect of the shared pass) is omitted from
// Quarantined and folded into Collateral, since from this job's view it is
// cleanup it did not ask for.
type Namespace struct {
	inner Store
	base  int
	nproc int
}

var _ Store = (*Namespace)(nil)

// NewNamespace returns job's private view of inner, where the job runs
// nproc processes. Distinct jobs (with the same nproc) get disjoint key
// ranges; job 0 with any nproc is the identity prefix.
func NewNamespace(inner Store, job, nproc int) (*Namespace, error) {
	if job < 0 || nproc <= 0 {
		return nil, fmt.Errorf("storage: namespace requires job >= 0 and nproc > 0 (got job=%d nproc=%d)", job, nproc)
	}
	return &Namespace{inner: inner, base: job * nproc, nproc: nproc}, nil
}

// check rejects process numbers outside the job's range: an out-of-range
// proc would silently alias another job's keys, which is exactly the bug
// namespaces exist to prevent.
func (ns *Namespace) check(proc int) error {
	if proc < 0 || proc >= ns.nproc {
		return fmt.Errorf("storage: namespace proc %d out of range [0,%d)", proc, ns.nproc)
	}
	return nil
}

// Save implements Store: the snapshot lands under the job's shifted
// process number.
func (ns *Namespace) Save(s Snapshot) error {
	if err := ns.check(s.Proc); err != nil {
		return err
	}
	s.Proc += ns.base
	return ns.inner.Save(s)
}

// Latest implements Store.
func (ns *Namespace) Latest(proc, cfgIndex int) (Snapshot, error) {
	if err := ns.check(proc); err != nil {
		return Snapshot{}, err
	}
	s, err := ns.inner.Latest(proc+ns.base, cfgIndex)
	if err != nil {
		return Snapshot{}, err
	}
	s.Proc -= ns.base
	return s, nil
}

// Get implements Store.
func (ns *Namespace) Get(proc, cfgIndex, instance int) (Snapshot, error) {
	if err := ns.check(proc); err != nil {
		return Snapshot{}, err
	}
	s, err := ns.inner.Get(proc+ns.base, cfgIndex, instance)
	if err != nil {
		return Snapshot{}, err
	}
	s.Proc -= ns.base
	return s, nil
}

// List implements Store.
func (ns *Namespace) List(proc int) ([]Snapshot, error) { return List(ns, proc) }

// Indexes implements Store: the indexes of this job's straight cuts, read
// off its own Keys. An n outside the job is refused before anything is
// read: Indexes stops at the first process that leaves no common cut, so
// Keys' own range check would not always be reached.
func (ns *Namespace) Indexes(n int) ([]int, error) {
	if n <= 0 || n > ns.nproc {
		return nil, fmt.Errorf("storage: namespace Indexes(%d) outside job size %d", n, ns.nproc)
	}
	return Indexes(ns, n)
}

// Keys implements KeyLister in the job's own numbering, so that rollback
// through a namespace names what to discard without loading it.
func (ns *Namespace) Keys(proc int) ([]Key, error) {
	if err := ns.check(proc); err != nil {
		return nil, err
	}
	keys, err := Keys(ns.inner, proc+ns.base)
	if err != nil {
		return nil, err
	}
	for i := range keys {
		keys[i].Proc -= ns.base
	}
	return keys, nil
}

// Delete implements Store.
func (ns *Namespace) Delete(proc, cfgIndex, instance int) error {
	if err := ns.check(proc); err != nil {
		return err
	}
	return ns.inner.Delete(proc+ns.base, cfgIndex, instance)
}

// Scrub implements Scrubber when the backing store does. The inner scrub
// verifies and quarantines across the whole shared store; the returned
// report is re-scoped to this job: quarantined keys inside the job's
// process range come back in local numbering, and quarantines outside it
// are counted as Collateral rather than listed, so a job never sees
// another job's key space. When the backing store is not a Scrubber the
// scrub is a clean no-op (memory-backed fleets).
func (ns *Namespace) Scrub() (ScrubReport, error) {
	rep, err := Scrub(ns.inner)
	if err != nil {
		return ScrubReport{}, err
	}
	out := ScrubReport{Collateral: rep.Collateral}
	for _, ref := range rep.Quarantined {
		if ref.Proc >= ns.base && ref.Proc < ns.base+ns.nproc {
			ref.Proc -= ns.base
			out.Quarantined = append(out.Quarantined, ref)
		} else {
			out.Collateral++
		}
	}
	return out, nil
}

var _ Scrubber = (*Namespace)(nil)
var _ KeyLister = (*Namespace)(nil)
