package storage

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/vclock"
)

// diffRun drives the flat incremental store and the reference it replaced
// (incremental_reference_test.go) through one random operation sequence and
// requires them to be indistinguishable: results, errors, reports, stats,
// and — white box — the checksum, kind and raw variables of every record.
type diffRun struct {
	t    *testing.T
	rng  *rand.Rand
	flat *Incremental
	ref  *refIncremental
	// env is each process's live environment, lent to Save and mutated
	// between saves as the runtime does; tick its event count.
	env  []map[string]int
	tick []uint64
	log  []string // the operations so far, for a failure's report
}

const diffProcs = 3

// diffSites are the manifests of the two checkpoint sites: a pruned save
// carries only its site's variables, so consecutive saves of one process at
// different sites make variables disappear from and appear in the chain.
var diffSites = map[int][]string{
	1: {"a", "b", "iter"},
	2: {"b", "c", "d", "iter", "never_set"},
}

// chainLocked returns proc's records, nil when it has saved none.
func (inc *Incremental) chainLocked(proc int) []record {
	if p := inc.procs[proc]; p != nil {
		return p.chain
	}
	return nil
}

func (d *diffRun) fail(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("%s\nafter:\n  %s", fmt.Sprintf(format, args...), strings.Join(d.log, "\n  "))
}

// sameErr requires both stores to fail alike: the same sentinel, the same
// text (the checksum values in a corruption report included).
func (d *diffRun) sameErr(flatErr, refErr error) {
	d.t.Helper()
	for _, sentinel := range []error{ErrNotFound, ErrDuplicate, ErrCorrupt} {
		if errors.Is(flatErr, sentinel) != errors.Is(refErr, sentinel) {
			d.fail("flat store: %v\nreference:  %v\ndiffer in being %v", flatErr, refErr, sentinel)
		}
	}
	if (flatErr == nil) != (refErr == nil) || flatErr != nil && flatErr.Error() != refErr.Error() {
		d.fail("flat store: %v\nreference:  %v", flatErr, refErr)
	}
}

func (d *diffRun) same(what string, flat, ref any) {
	d.t.Helper()
	if !reflect.DeepEqual(flat, ref) {
		d.fail("%s:\nflat store: %+v\nreference:  %+v", what, flat, ref)
	}
}

// mutateEnv moves proc's environment on: values change, variables appear
// and disappear, and now and then forty more arrive at once, so that the
// encoder's name sort leaves its 32-entry stack scratch.
func (d *diffRun) mutateEnv(proc int) {
	env := d.env[proc]
	names := []string{"a", "b", "c", "d", "iter", "a_rather_longer_variable_name"}
	for i := d.rng.Intn(4); i > 0; i-- {
		name := names[d.rng.Intn(len(names))]
		switch d.rng.Intn(6) {
		case 0:
			delete(env, name)
		default:
			env[name] = d.rng.Intn(7) - 3
		}
	}
	switch d.rng.Intn(12) {
	case 0:
		for i := 0; i < 40; i++ {
			env[fmt.Sprintf("wide_%02d", i)] = d.rng.Intn(3)
		}
	case 1:
		for name := range env {
			if len(name) == len("wide_00") && name[:5] == "wide_" {
				delete(env, name)
			}
		}
	}
}

// nextInstance is one past the highest instance of (proc, index) either
// store still names, so that deleted and quarantined keys are saved again.
func (d *diffRun) nextInstance(proc, index int) int {
	next := 0
	for _, k := range d.keys(proc) {
		if k.CFGIndex == index && k.Instance >= next {
			next = k.Instance + 1
		}
	}
	return next
}

func (d *diffRun) keys(proc int) []Key {
	keys, _ := d.flat.Keys(proc)
	return keys
}

func (d *diffRun) save(proc int) {
	d.mutateEnv(proc)
	index := 1 + d.rng.Intn(2)
	d.tick[proc]++
	// The reference's clone turned a nil clock into an empty one; the codec
	// gives back what was saved. Clocks here are never nil, as in the
	// runtime, so that this one improvement does not count as a difference.
	clock := vclock.New(diffProcs)
	clock[proc] = d.tick[proc]
	s := Snapshot{
		Proc: proc, CFGIndex: index, Instance: d.nextInstance(proc, index),
		Clock: clock, Vars: d.env[proc], PC: fmt.Sprint(d.rng.Intn(40)),
		VTime: float64(d.rng.Intn(8)) / 4,
	}
	if keys := d.keys(proc); len(keys) > 0 && d.rng.Intn(15) == 0 {
		s.CFGIndex, s.Instance = keys[d.rng.Intn(len(keys))].CFGIndex, keys[d.rng.Intn(len(keys))].Instance
	}
	switch d.rng.Intn(10) {
	case 0:
		s.Vars = nil
	case 1:
		s.Vars = map[string]int{}
	case 2, 3, 4, 5:
		// Pruned to the site's manifest, as takeCheckpoint does.
		s.Vars = map[string]int{}
		for _, name := range diffSites[index] {
			if v, ok := d.env[proc][name]; ok {
				s.Vars[name] = v
			}
		}
	}
	if d.rng.Intn(3) > 0 {
		s.N, s.Peers = 3, nil
		for _, p := range []int{0, 2} {
			if sent := d.rng.Intn(5); sent > 0 {
				s.Peers = append(s.Peers, PeerSeq{Peer: p, Sent: sent})
			}
		}
		s.Instances = map[int]int{index: s.Instance + 1, 7: d.rng.Intn(3)}
	}
	d.log = append(d.log, fmt.Sprintf("Save %s, %d vars (nil %v)", s.Key(), len(s.Vars), s.Vars == nil))
	d.sameErr(d.flat.Save(s), d.ref.Save(s))
}

// someKey picks a key to read, delete or damage: mostly one that exists,
// at pos when that is a valid position of its process's chain.
func (d *diffRun) someKey(proc, pos int) Key {
	keys := d.keys(proc)
	if len(keys) == 0 || d.rng.Intn(8) == 0 {
		return Key{proc, 1 + d.rng.Intn(2), d.rng.Intn(6)}
	}
	if pos < 0 || pos >= len(keys) {
		pos = d.rng.Intn(len(keys))
	}
	return keys[pos]
}

func (d *diffRun) tamper(proc int) {
	// A base, an interior record or the tail, with equal odds, by chain
	// position: Keys is not in save order. A dead one is not found.
	k := d.someKey(proc, -1)
	if chain := d.flat.chainLocked(proc); len(chain) > 0 {
		n := len(chain)
		k = chain[[]int{0, n / 2, n - 1}[d.rng.Intn(3)]].key
	}
	kind, pick, val := d.rng.Intn(3), d.rng.Intn(1<<16), d.rng.Intn(100)+100
	var saw []map[string]int
	mutate := func(vars map[string]int) {
		saw = append(saw, maps.Clone(vars)) // nil stays nil
		if vars == nil {
			return // a full record of a nil map: nothing to write to
		}
		names := make([]string, 0, len(vars))
		for name := range vars {
			names = append(names, name)
		}
		sort.Strings(names)
		switch {
		case kind == 0 || len(names) == 0:
			vars[fmt.Sprintf("rot_%d", pick%3)] = val
		case kind == 1:
			vars[names[pick%len(names)]] += val
		default:
			delete(vars, names[pick%len(names)])
		}
	}
	d.log = append(d.log, fmt.Sprintf("Tamper %s kind=%d pick=%d", k, kind, pick))
	d.sameErr(d.flat.Tamper(k.Proc, k.CFGIndex, k.Instance, mutate), d.ref.Tamper(k.Proc, k.CFGIndex, k.Instance, mutate))
	if len(saw) == 2 {
		d.same("raw variables of "+k.String(), saw[0], saw[1])
	}
	if d.rng.Intn(2) == 0 {
		d.save(proc) // onto a damaged tail: the self-healing full record
	}
}

func sortedReport(rep ScrubReport) ScrubReport {
	sort.Slice(rep.Quarantined, func(i, j int) bool { return rep.Quarantined[i].Key.Less(rep.Quarantined[j].Key) })
	return rep
}

func (d *diffRun) step() {
	proc := d.rng.Intn(diffProcs)
	switch op := d.rng.Intn(26); {
	case op < 10:
		d.save(proc)
	case op < 14:
		k := d.someKey(proc, -1)
		d.log = append(d.log, "Get "+k.String())
		fs, ferr := d.flat.Get(k.Proc, k.CFGIndex, k.Instance)
		rs, rerr := d.ref.Get(k.Proc, k.CFGIndex, k.Instance)
		d.sameErr(ferr, rerr)
		d.same("Get "+k.String(), fs, rs)
	case op < 16:
		index := 1 + d.rng.Intn(3)
		d.log = append(d.log, fmt.Sprintf("Latest %d %d", proc, index))
		fs, ferr := d.flat.Latest(proc, index)
		rs, rerr := d.ref.Latest(proc, index)
		d.sameErr(ferr, rerr)
		d.same("Latest", fs, rs)
	case op < 18:
		d.log = append(d.log, fmt.Sprintf("List %d", proc))
		fs, ferr := d.flat.List(proc)
		rs, rerr := d.ref.List(proc)
		d.sameErr(ferr, rerr)
		d.same("List", fs, rs)
	case op < 19:
		d.log = append(d.log, "Indexes")
		for n := 1; n <= diffProcs; n++ {
			fi, _ := d.flat.Indexes(n)
			ri, _ := d.ref.Indexes(n)
			d.same(fmt.Sprintf("Indexes(%d)", n), fi, ri)
		}
	case op < 22:
		k := d.someKey(proc, -1)
		d.log = append(d.log, "Delete "+k.String())
		d.sameErr(d.flat.Delete(k.Proc, k.CFGIndex, k.Instance), d.ref.Delete(k.Proc, k.CFGIndex, k.Instance))
	case op < 24:
		d.tamper(proc)
	default:
		d.log = append(d.log, "Scrub")
		frep, ferr := d.flat.Scrub()
		rrep, rerr := d.ref.Scrub()
		d.sameErr(ferr, rerr)
		d.same("Scrub", sortedReport(frep), sortedReport(rrep))
	}
	d.sameRecords()
}

// sameRecords compares what the two stores hold, record by record.
func (d *diffRun) sameRecords() {
	d.t.Helper()
	d.same("Stats", d.flat.Stats(), d.ref.Stats())
	for proc := 0; proc < diffProcs; proc++ {
		fk, _ := d.flat.Keys(proc)
		rk, _ := d.ref.Keys(proc)
		d.same(fmt.Sprintf("Keys(%d)", proc), fk, rk)
		chain := d.flat.chainLocked(proc)
		if len(chain) != len(d.ref.recs[proc]) {
			d.fail("process %d: chain of %d records, reference %d", proc, len(chain), len(d.ref.recs[proc]))
		}
		for pos := range chain {
			f, r := &chain[pos], &d.ref.recs[proc][pos]
			// A live record is indexed at its position, a dead one is not.
			at, held := d.flat.byKey.Get(f.key)
			if f.crc != r.crc || f.delta != r.delta || f.dead != r.dead || (held && at == pos) == f.dead {
				d.fail("record %d of process %d (%s): crc %08x delta %v dead %v indexed at %d, reference crc %08x delta %v dead %v",
					pos, proc, f.key, f.crc, f.delta, f.dead, at, r.crc, r.delta, r.dead)
			}
		}
	}
	if d.flat.byKey.n != len(d.ref.byKey) {
		d.fail("flat store indexes %d keys, reference %d", d.flat.byKey.n, len(d.ref.byKey))
	}
}

// The flat incremental store against its old self: ≥ 200 seeded sequences of
// ≥ 60 operations over three processes and the three full-record periods
// that matter (no deltas, alternating, the default), with variables
// changing, appearing and disappearing, nil and empty maps, pruned and full
// saves, reads of every kind, deletes of any key, damage to bases, interior
// records and tails, scrubs, and saves onto damaged chains.
func TestIncrementalAgainstReference(t *testing.T) {
	for seq := 0; seq < 240; seq++ {
		diffSequence(t, int64(seq), []int{1, 2, 8}[seq%3])
	}
}

// FuzzIncrementalAgainstReference runs one such sequence per input.
func FuzzIncrementalAgainstReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, fullEvery uint8) {
		diffSequence(t, seed, int(fullEvery))
	})
}

// diffSequence drives both stores through 64 operations drawn from seed,
// then scrubs and requires them fully readable and equal.
func diffSequence(t *testing.T, seed int64, fullEvery int) {
	const ops = 64
	d := &diffRun{
		t: t, rng: rand.New(rand.NewSource(seed)),
		flat: NewIncremental(fullEvery), ref: newRefIncremental(fullEvery),
		tick: make([]uint64, diffProcs),
	}
	d.log = append(d.log, fmt.Sprintf("sequence %d, fullEvery %d", seed, fullEvery))
	for p := 0; p < diffProcs; p++ {
		d.env = append(d.env, map[string]int{"iter": 0})
	}
	for op := 0; op < ops; op++ {
		d.step()
	}
	// Whatever state the sequence ended in, a scrub leaves both stores
	// fully readable and equal.
	frep, _ := d.flat.Scrub()
	rrep, _ := d.ref.Scrub()
	d.same("final Scrub", sortedReport(frep), sortedReport(rrep))
	for proc := 0; proc < diffProcs; proc++ {
		fs, ferr := d.flat.List(proc)
		rs, rerr := d.ref.List(proc)
		if ferr != nil || rerr != nil {
			d.fail("List(%d) after the final scrub: %v / %v", proc, ferr, rerr)
		}
		d.same("final List", fs, rs)
	}
	d.sameRecords()
}

// A trimmed chain lets go of its records: Delete and Scrub zero what they
// drop, or the backing array would go on pinning the frames' and pairs'
// chunks until a later save happened to overwrite the slot.
func TestIncrementalTruncationZeroesDroppedRecords(t *testing.T) {
	droppedAreZero := func(t *testing.T, inc *Incremental, wantLen int) {
		t.Helper()
		chain := inc.procs[0].chain
		if len(chain) != wantLen {
			t.Fatalf("chain holds %d records, want %d", len(chain), wantLen)
		}
		for i, r := range chain[:cap(chain)][len(chain):] {
			if !reflect.DeepEqual(r, record{}) {
				t.Errorf("dropped record %d is still reachable: %+v", len(chain)+i, r)
			}
		}
	}
	fill := func(t *testing.T) *Incremental {
		t.Helper()
		inc := NewIncremental(4)
		for k := 0; k < 6; k++ {
			if err := inc.Save(snap(0, 1, k, map[string]int{"x": k, "c": 42})); err != nil {
				t.Fatal(err)
			}
		}
		return inc
	}
	tamper := func(t *testing.T, inc *Incremental, k int) {
		t.Helper()
		if err := inc.Tamper(0, 1, k, func(vars map[string]int) { vars["c"] = 99 }); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("Delete", func(t *testing.T) {
		inc := fill(t)
		for k := 5; k >= 3; k-- {
			if err := inc.Delete(0, 1, k); err != nil {
				t.Fatal(err)
			}
		}
		droppedAreZero(t, inc, 3)
	})
	t.Run("Scrub", func(t *testing.T) {
		inc := fill(t)
		tamper(t, inc, 2)
		rep, err := inc.Scrub()
		// "c" is in no delta: 2 and 3 reconstruct wrongly; 4 is full, 5 chains on it.
		if err != nil || len(rep.Quarantined) != 2 || rep.Quarantined[0].Instance != 2 ||
			rep.Quarantined[1].Instance != 3 || rep.Collateral != 0 {
			t.Fatalf("scrub report %+v, err %v, want 2 and 3 quarantined", rep, err)
		}
		for k := 4; k < 6; k++ {
			if s, err := inc.Get(0, 1, k); err != nil || s.Vars["x"] != k {
				t.Fatalf("record %d after the scrub: %v, err %v", k, s.Vars, err)
			}
		}
		droppedAreZero(t, inc, 6)
		// Damage to the base of the tail: the scrub quarantines 4 and 5, and
		// the dead records from 2 up go.
		tamper(t, inc, 4)
		if rep, err := inc.Scrub(); err != nil || len(rep.Quarantined) != 2 {
			t.Fatalf("tail scrub report %+v, err %v", rep, err)
		}
		droppedAreZero(t, inc, 2)
	})
}

// TestArenaReplacesFullChunks pins the growth rule both stores' arenas
// follow, on the pair slab: a full chunk is replaced by a fresh one, never
// regrown — append would move every pair kept before out from under the
// records that refer to them — chunks double from the first size to
// arenaChunkSpan times it, and what keep returns ends where its capacity
// does, an oversized keep's too.
func TestArenaReplacesFullChunks(t *testing.T) {
	var a arena[nameVal]
	var kept [][]nameVal
	const largest = arenaChunkSpan * pairChunkMin
	for i := 0; i < 4*largest; i++ {
		full := len(a.chunk) == cap(a.chunk)
		s := a.keep(pairChunkMin, []nameVal{{"v", i}})
		kept = append(kept, s)
		if cap(s) != 1 {
			t.Fatalf("keep %d has capacity %d: an append to it would overwrite the next", i, cap(s))
		}
		if full && len(a.chunk) != 1 {
			t.Fatalf("keep %d: a full chunk was regrown to %d pairs, not replaced by a fresh one", i, len(a.chunk))
		}
		if i == 0 && cap(a.chunk) != pairChunkMin || cap(a.chunk) > largest {
			t.Fatalf("keep %d: chunk of %d pairs", i, cap(a.chunk))
		}
	}
	for i, s := range kept {
		if s[0].val != i {
			t.Fatalf("pair %d reads %d after later keeps", i, s[0].val)
		}
	}
	// Several parts land end to end; more than a chunk holds stands alone.
	two := a.keep(pairChunkMin, []nameVal{{"a", 1}}, nil, []nameVal{{"b", 2}, {"c", 3}})
	if want := []nameVal{{"a", 1}, {"b", 2}, {"c", 3}}; !slices.Equal(two, want) || cap(two) != 3 {
		t.Errorf("keep of three parts = %v (cap %d), want %v", two, cap(two), want)
	}
	before := a.chunk
	if big := a.keep(pairChunkMin, make([]nameVal, 3*largest)); len(big) != 3*largest || cap(big) != len(big) {
		t.Errorf("oversized keep holds %d pairs (cap %d), want %d clipped", len(big), cap(big), 3*largest)
	}
	if len(a.chunk) != len(before) || cap(a.chunk) != cap(before) {
		t.Error("an oversized keep replaced the current chunk")
	}
}

// Records of one process sit side by side in a pair chunk. Writing more
// variables back into one (Tamper) or appending through its cut must
// reallocate, not run on into the neighbour's pairs: the cuts are
// capacity-clipped.
func TestIncrementalPairCutsAreClipped(t *testing.T) {
	inc := NewIncremental(8)
	for k := 0; k < 3; k++ {
		// "gone" disappears at k = 1, so that record has a removed list too.
		vars := map[string]int{"x": k, "y": 10 * k, "c": 42}
		if k == 0 {
			vars["gone"] = 1
		}
		if err := inc.Save(snap(0, 1, k, vars)); err != nil {
			t.Fatal(err)
		}
	}
	chain := inc.procs[0].chain
	for pos := range chain {
		r := &chain[pos]
		if cap(r.vars) != len(r.vars) || cap(r.removed) != len(r.removed) {
			t.Errorf("record %d: vars len %d cap %d, removed len %d cap %d — spare capacity reaches the next cut",
				pos, len(r.vars), cap(r.vars), len(r.removed), cap(r.removed))
		}
	}
	if len(chain[1].removed) != 1 {
		t.Fatalf("record 1 removed %v, want one name", chain[1].removed)
	}
	// Grow record 1's delta by four variables: its neighbours — its own
	// removed list, then record 2 — must read as before.
	if err := inc.Tamper(0, 1, 1, func(vars map[string]int) {
		for i := 0; i < 4; i++ {
			vars[fmt.Sprintf("extra_%d", i)] = -1
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := inc.Tamper(0, 1, 1, func(vars map[string]int) {
		for i := 0; i < 4; i++ {
			delete(vars, fmt.Sprintf("extra_%d", i))
		}
	}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		got, err := inc.Get(0, 1, k)
		want := map[string]int{"x": k, "y": 10 * k, "c": 42}
		if k == 0 {
			want["gone"] = 1
		}
		if err != nil || !reflect.DeepEqual(got.Vars, want) {
			t.Errorf("instance %d after its neighbour was grown and shrunk back: vars %v, err %v; want %v", k, got.Vars, err, want)
		}
	}
}

// A steady-state incremental Save allocates nothing of its own, full or
// delta: the body is encoded into the store's scratch, its frame copied into
// the process's arena, its pairs cut from the slab, and the previous state a
// delta diffs against replayed into the store's one scratch map. What is
// left is amortized: chunks, the chain's and the index's growth.
func TestIncrementalSaveSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fullEvery int
	}{{"full", 1}, {"delta", 8}} {
		t.Run(tc.name, func(t *testing.T) {
			inc := NewIncremental(tc.fullEvery)
			s := sampleSnap(0, 1, 0)
			save := func() {
				s.Instance++
				s.Vars["iter"]++
				if err := inc.Save(s); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 512; i++ {
				save()
			}
			const batch = 2000
			perSave := testing.AllocsPerRun(5, func() {
				for i := 0; i < batch; i++ {
					save()
				}
			}) / batch
			if perSave > 0.1 {
				t.Errorf("steady-state Save allocates %.3f objects amortized, want <= 0.1", perSave)
			}
			p := inc.procs[0]
			if c := cap(p.frames.chunk); c != arenaChunkMax {
				t.Errorf("current frame chunk holds %d bytes, want the %d cap", c, arenaChunkMax)
			}
			if c := cap(p.pairs.chunk); c != arenaChunkSpan*pairChunkMin {
				t.Errorf("current pair chunk holds %d pairs, want the %d cap", c, arenaChunkSpan*pairChunkMin)
			}
		})
	}
}

// A read costs what decoding one snapshot costs, wherever in a chain it
// lands: replay goes through the store's scratch map, not through a fresh
// clone of the base per read.
func TestIncrementalReadAllocsDoNotGrowWithChainDepth(t *testing.T) {
	inc := NewIncremental(8)
	for k := 0; k < 8; k++ {
		s := sampleSnap(0, 1, k)
		s.Vars["iter"] = k
		if err := inc.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if r := inc.procs[0].chain[7]; !r.delta {
		t.Fatal("record 7 is not a delta: the test reads no chain")
	}
	read := func(instance int) float64 {
		return testing.AllocsPerRun(100, func() {
			if s, err := inc.Get(0, 1, instance); err != nil || s.Vars["iter"] != instance {
				t.Fatalf("Get(%d): vars %v, err %v", instance, s.Vars, err)
			}
		})
	}
	base, deep := read(0), read(7)
	t.Logf("Get allocates %.0f objects at depth 0, %.0f at depth 7", base, deep)
	if base != deep || deep > 10 {
		t.Errorf("Get allocates %.0f objects at depth 0 and %.0f at depth 7, want the same and <= 10", base, deep)
	}
}
