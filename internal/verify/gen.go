package verify

import (
	"math/rand"
	"strconv"

	"repro/internal/corpus"
	"repro/internal/mpl"
)

// subSeedStride spreads per-program sub-seeds across the int64 space
// (golden-ratio increment), so neighbouring harness seeds do not produce
// overlapping program streams.
const subSeedStride = int64(-7046029254386353131) // 0x9E3779B97F4A7C15 as int64

// SubSeed returns the sub-seed of the k-th program of the stream a harness
// seed starts. Each program is generated from its own sub-seed, printed in
// counterexample reports, so a single program regenerates via
// Generate(subSeed) without replaying the stream.
func SubSeed(seed int64, k int) int64 {
	return seed + int64(k)*subSeedStride
}

// Generate builds one deterministic, deadlock-free SPMD program from a
// sub-seed: communication motifs (ID-dependent branches, loops, matched
// send/recv patterns, collectives) that are safe under asynchronous sends
// and blocking receives for EVERY process count, interleaved with
// computation, randomly placed checkpoint statements, and a final random
// mutation pass that inserts extra checkpoints at arbitrary body positions
// — including positions that break Condition 1 or if-branch balance, which
// is the point: Phases I–III must repair whatever this invents.
func Generate(seed int64) *mpl.Program {
	r := rand.New(rand.NewSource(seed))
	b := mpl.NewBuilder("gen_" + strconv.FormatInt(seed, 10))
	b.Vars("a", "c", "tmp", "iter", "j")

	iters := 1 + r.Intn(3)
	b.Const("ITERS", iters)
	b.Assign("a", mpl.Add(mpl.Rank(), mpl.Int(1)))
	if r.Intn(3) == 0 {
		// Irregular (data-dependent) seed value via the input builtin.
		b.Assign("c", mpl.InputAt(mpl.Rank()))
		b.Assign("a", mpl.Add(mpl.V("a"), mpl.V("c")))
	}
	b.Assign("iter", mpl.Int(0))

	motifs := 1 + r.Intn(3)
	b.While(mpl.Lt(mpl.V("iter"), mpl.V("ITERS")), func(b *mpl.Builder) {
		for m := 0; m < motifs; m++ {
			genMotif(b, r)
		}
		b.Assign("iter", mpl.Add(mpl.V("iter"), mpl.Int(1)))
	})
	if r.Intn(2) == 0 {
		genMotif(b, r)
	}
	if r.Intn(2) == 0 {
		b.Chkpt()
		b.Assign("a", mpl.Add(mpl.V("a"), mpl.Int(1)))
	}
	p := b.MustProgram()

	// Mutation pass: sprinkle extra checkpoints at random positions of the
	// finished template, unbalanced branches and all.
	for extra := r.Intn(3); extra > 0; extra-- {
		insertRandomChkpt(p, r)
	}
	return p
}

// GenerateLarge builds one deterministic large SPMD program — the
// large-program corpus behind the pipeline scaling benchmarks and the
// serial-vs-parallel equality test. Each of scale phases is a loop nest
// up to three deep whose innermost body holds several communication
// motifs; statement count grows roughly linearly with scale (a few
// hundred statements at scale 8). The same random checkpoint-mutation
// pass as Generate runs at the end, and the same guarantees hold: the
// program is well-formed, deadlock-free for every process count, and
// repairable by Phases I–III.
func GenerateLarge(seed int64, scale int) *mpl.Program {
	if scale < 1 {
		scale = 1
	}
	r := rand.New(rand.NewSource(seed))
	b := mpl.NewBuilder("genlarge_" + strconv.FormatInt(seed, 10))
	b.Vars("a", "c", "tmp", "j", "i0", "i1", "i2")
	b.Assign("a", mpl.Add(mpl.Rank(), mpl.Int(1)))
	counters := [...]string{"i0", "i1", "i2"}
	for ph := 0; ph < scale; ph++ {
		depth := 1 + r.Intn(3)
		motifs := 2 + r.Intn(3)
		var nest func(b *mpl.Builder, d int)
		nest = func(b *mpl.Builder, d int) {
			if d == depth {
				for m := 0; m < motifs; m++ {
					genMotif(b, r)
				}
				return
			}
			ctr := counters[d]
			reps := 1 + r.Intn(2)
			b.Assign(ctr, mpl.Int(0))
			b.While(mpl.Lt(mpl.V(ctr), mpl.Int(reps)), func(b *mpl.Builder) {
				nest(b, d+1)
				b.Assign(ctr, mpl.Add(mpl.V(ctr), mpl.Int(1)))
			})
		}
		nest(b, 0)
		if r.Intn(2) == 0 {
			b.Chkpt()
		}
		b.Work(mpl.Int(1 + r.Intn(3)))
	}
	p := b.MustProgram()
	for extra := 2 + r.Intn(scale+1); extra > 0; extra-- {
		insertRandomChkpt(p, r)
	}
	return p
}

// genMotif appends one random communication motif: corpus.EmitMotif's
// shared four, or one of this generator's own (2, 5, 6, 7). All motifs are
// deadlock-free by construction for every nproc >= 1: peer expressions that
// leave [0, nproc) are no-ops on both sides (guarded-boundary semantics,
// same as the runtime).
func genMotif(b *mpl.Builder, r *rand.Rand) {
	maybeChkpt := func(prob float64) {
		if r.Float64() < prob {
			b.Chkpt()
		}
	}
	corpus.EmitMotif(b, r, 8, func(k int) {
		switch k {
		case 2:
			// Broadcast from a random (in-range for every nproc) root.
			maybeChkpt(0.3)
			b.Assign("c", mpl.Add(mpl.V("a"), mpl.Int(1)))
			b.Bcast(mpl.Mod(mpl.Int(r.Intn(4)), mpl.Nproc()), "c")
			maybeChkpt(0.3)
			b.Assign("a", mpl.Add(mpl.V("a"), mpl.V("c")))
		case 5:
			// Ping-pong between ranks 0 and 1 (no-op for nproc == 1).
			maybeChkpt(0.3)
			b.If(mpl.Eq(mpl.Rank(), mpl.Int(0)), func(b *mpl.Builder) {
				b.Send(mpl.Int(1), "a")
				b.Recv(mpl.Int(1), "tmp")
			})
			b.If(mpl.Eq(mpl.Rank(), mpl.Int(1)), func(b *mpl.Builder) {
				b.Recv(mpl.Int(0), "tmp")
				b.Send(mpl.Int(0), "tmp")
			})
			maybeChkpt(0.3)
		case 6:
			// Wrap-around token: the last rank hands a value to rank 0.
			last := mpl.Sub(mpl.Nproc(), mpl.Int(1))
			b.If(mpl.Eq(mpl.Rank(), last), func(b *mpl.Builder) {
				b.Send(mpl.Int(0), "a")
			})
			maybeChkpt(0.4)
			b.If(mpl.Eq(mpl.Rank(), mpl.Int(0)), func(b *mpl.Builder) {
				b.Recv(last, "tmp")
				b.Assign("a", mpl.Add(mpl.V("a"), mpl.V("tmp")))
			})
		case 7:
			// Inner loop of ring shifts with its own counter.
			reps := 1 + r.Intn(2)
			withCk := r.Intn(2) == 0
			b.Assign("j", mpl.Int(0))
			b.While(mpl.Lt(mpl.V("j"), mpl.Int(reps)), func(b *mpl.Builder) {
				b.Send(mpl.Mod(mpl.Add(mpl.Rank(), mpl.Int(1)), mpl.Nproc()), "a")
				b.Recv(mpl.Mod(mpl.Sub(mpl.Rank(), mpl.Int(1)), mpl.Nproc()), "tmp")
				if withCk {
					b.Chkpt()
				}
				b.Assign("a", mpl.Add(mpl.V("a"), mpl.V("tmp")))
				b.Assign("j", mpl.Add(mpl.V("j"), mpl.Int(1)))
			})
		}
	})
}

// insertionSlots collects the statement-list insertion points of the
// program as sites (block and position; no list), top-level and nested,
// EXCEPT inside one-sided (else-less) if branches that communicate: a
// checkpoint wedged between the sends and receives of a single-rank guard
// is outside Phase III's repair set (its mover cannot relocate a
// checkpoint across the guard boundary), so sprinkling one there would
// make the generator emit untransformable programs rather than hard ones.
func insertionSlots(p *mpl.Program) []site {
	var out []site
	var walk func(list []mpl.Stmt, b mpl.Block)
	walk = func(list []mpl.Stmt, b mpl.Block) {
		for pos := 0; pos <= len(list); pos++ {
			out = append(out, site{block: b, pos: pos})
		}
		for _, s := range list {
			switch st := s.(type) {
			case *mpl.While:
				walk(st.Body, mpl.Block{Owner: st.ID()})
			case *mpl.If:
				if len(st.Else) == 0 && containsComm(st.Then) {
					continue
				}
				walk(st.Then, mpl.Block{Owner: st.ID()})
				if len(st.Else) > 0 {
					walk(st.Else, mpl.Block{Owner: st.ID(), Else: true})
				}
			}
		}
	}
	walk(p.Body, mpl.Block{Owner: mpl.TopLevel})
	return out
}

// containsComm reports whether the body holds a communication statement
// at any nesting depth.
func containsComm(body []mpl.Stmt) bool {
	found := false
	mpl.Walk(body, func(s mpl.Stmt) bool {
		if isComm(s) {
			found = true
			return false
		}
		return true
	})
	return found
}

// insertRandomChkpt inserts a fresh checkpoint statement at a random
// insertion slot of p, through an edit of p.
func insertRandomChkpt(p *mpl.Program, r *rand.Rand) {
	slots := insertionSlots(p)
	s := slots[r.Intn(len(slots))]
	id := p.MaxStmtID() + 1
	e := p.Edit()
	e.Insert(s.block, s.pos, e.Chkpt(id))
	e.Close()
}
