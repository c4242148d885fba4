package corpus

import (
	"math/rand"
	"strconv"

	"repro/internal/mpl"
)

// Random generates a deterministic, deadlock-free SPMD program from a
// seed, for property-based testing of the transformation pipeline and the
// runtime. Programs are composed from communication motifs that are safe
// under asynchronous sends and blocking receives for EVERY process count,
// interleaved with computation and randomly placed checkpoint statements
// (possibly unsafe placements — that is the point: Phase III must repair
// them).
func Random(seed int64) *mpl.Program {
	r := rand.New(rand.NewSource(seed))
	b := mpl.NewBuilder("random_" + strconv.FormatInt(seed, 10))
	b.Vars("a", "c", "tmp", "iter")

	iters := 1 + r.Intn(3)
	b.Const("ITERS", iters)
	b.Assign("a", mpl.Add(mpl.Rank(), mpl.Int(1)))
	b.Assign("iter", mpl.Int(0))

	motifs := 1 + r.Intn(3)
	b.While(mpl.Lt(mpl.V("iter"), mpl.V("ITERS")), func(b *mpl.Builder) {
		for m := 0; m < motifs; m++ {
			EmitMotif(b, r, 5, func(int) {
				// Broadcast from rank 0 plus local compute.
				maybeChkpt(b, r, 0.3)
				b.Assign("c", mpl.Add(mpl.V("a"), mpl.Int(1)))
				b.Bcast(mpl.Int(0), "c")
				maybeChkpt(b, r, 0.3)
				b.Assign("a", mpl.Add(mpl.V("a"), mpl.V("c")))
			})
		}
		b.Assign("iter", mpl.Add(mpl.V("iter"), mpl.Int(1)))
	})
	if r.Intn(2) == 0 {
		b.Chkpt()
		b.Assign("a", mpl.Add(mpl.V("a"), mpl.Int(1)))
	}
	return b.MustProgram()
}

// maybeChkpt appends a checkpoint statement with probability prob.
func maybeChkpt(b *mpl.Builder, r *rand.Rand, prob float64) {
	if r.Float64() < prob {
		b.Chkpt()
	}
}

// EmitMotif appends one random communication motif, drawn as
// k = r.Intn(kinds), and the computation after it. Checkpoint statements
// land at positions that may break Condition 1. Four motifs are shared by
// every random generator and emitted here: 0 even/odd paired exchange, 1
// ring shift, 3 allreduce, 4 halves pipeline. Any other k is the caller's
// own, appended by other(k). Every motif is deadlock-free under
// asynchronous sends and blocking receives for every process count.
func EmitMotif(b *mpl.Builder, r *rand.Rand, kinds int, other func(k int)) {
	switch k := r.Intn(kinds); k {
	case 0:
		// Even/odd paired exchange (the Figure 2 shape): even ranks talk
		// to their right neighbor; checkpoints may land on either side of
		// the communication.
		evenCk := r.Intn(2) == 0
		oddCk := r.Intn(2) == 0
		b.IfElse(mpl.Eq(mpl.Mod(mpl.Rank(), mpl.Int(2)), mpl.Int(0)),
			func(b *mpl.Builder) {
				if evenCk {
					b.Chkpt()
				}
				b.Send(mpl.Add(mpl.Rank(), mpl.Int(1)), "a")
				b.Recv(mpl.Add(mpl.Rank(), mpl.Int(1)), "tmp")
				if !evenCk {
					b.Chkpt()
				}
			},
			func(b *mpl.Builder) {
				b.Recv(mpl.Sub(mpl.Rank(), mpl.Int(1)), "tmp")
				if oddCk {
					b.Chkpt()
				}
				b.Send(mpl.Sub(mpl.Rank(), mpl.Int(1)), "a")
				if !oddCk {
					b.Chkpt()
				}
			})
		b.Assign("a", mpl.Add(mpl.V("a"), mpl.V("tmp")))
	case 1:
		// Ring shift: everyone sends right, receives from the left.
		// Asynchronous sends make this deadlock-free.
		maybeChkpt(b, r, 0.5)
		b.Send(mpl.Mod(mpl.Add(mpl.Rank(), mpl.Int(1)), mpl.Nproc()), "a")
		b.Recv(mpl.Mod(mpl.Sub(mpl.Rank(), mpl.Int(1)), mpl.Nproc()), "tmp")
		maybeChkpt(b, r, 0.5)
		b.Assign("a", mpl.Add(mpl.V("a"), mpl.V("tmp")))
	case 3:
		// Allreduce: contribute, reduce to rank 0, broadcast back.
		maybeChkpt(b, r, 0.4)
		b.Assign("c", mpl.V("a"))
		b.Reduce(mpl.Int(0), "c")
		b.Bcast(mpl.Int(0), "c")
		maybeChkpt(b, r, 0.4)
		b.Assign("a", mpl.Add(mpl.V("a"), mpl.V("c")))
	case 4:
		// Halves pipeline (works for odd process counts too: the last odd
		// rank sits out).
		half := mpl.Div(mpl.Nproc(), mpl.Int(2))
		sendCk := r.Intn(2) == 0
		b.IfElse(mpl.Lt(mpl.Rank(), half),
			func(b *mpl.Builder) {
				if sendCk {
					b.Chkpt()
				}
				b.Send(mpl.Add(mpl.Rank(), half), "a")
				if !sendCk {
					b.Chkpt()
				}
			},
			func(b *mpl.Builder) {
				b.If(mpl.Lt(mpl.Rank(), mpl.Mul(mpl.Int(2), half)), func(b *mpl.Builder) {
					b.Recv(mpl.Sub(mpl.Rank(), half), "tmp")
					b.Assign("a", mpl.Add(mpl.V("a"), mpl.V("tmp")))
				})
				b.Chkpt()
			})
	default:
		other(k)
	}
	b.Work(mpl.Int(1 + r.Intn(3)))
}
