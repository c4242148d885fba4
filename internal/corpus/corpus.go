// Package corpus holds the canonical MPL programs used across tests,
// examples, and benchmarks: the paper's two Jacobi variants (Figures 1 and
// 2) and a set of additional SPMD communication patterns that exercise the
// analyses. Programs are built fresh on every call so callers may mutate
// them freely.
package corpus

import "repro/internal/mpl"

// JacobiFig1 is the paper's Figure 1: a Jacobi iteration where every
// process takes its checkpoint at the same place (top of the loop) before
// exchanging with neighbors. Every straight cut of checkpoints is a
// recovery line as-is.
//
// The neighbor exchange uses guarded-boundary semantics: sends/receives
// with peers outside [0, nproc) are no-ops.
func JacobiFig1(iters int) *mpl.Program { return jacobi("jacobi_fig1", iters, true, nil) }

// JacobiHeavy is JacobiFig1 with a heavy per-iteration computation,
// work(workUnits) after the checkpoint, so each checkpoint interval costs
// about the paper's T; without chkpt it is the checkpoint-free baseline.
func JacobiHeavy(iters, workUnits int, chkpt bool) *mpl.Program {
	return jacobi("jacobi_heavy", iters, chkpt, mpl.Int(workUnits))
}

// jacobi builds the Figure 1 exchange: a checkpoint at the top of the loop
// when chkpt is set, then work(work) unless work is nil.
func jacobi(name string, iters int, chkpt bool, work mpl.Expr) *mpl.Program {
	return mpl.NewBuilder(name).
		Const("MAXITER", iters).
		Vars("x", "xl", "xr", "iter").
		Assign("x", mpl.Add(mpl.Rank(), mpl.Int(1))).
		Assign("iter", mpl.Int(0)).
		While(mpl.Lt(mpl.V("iter"), mpl.V("MAXITER")), func(b *mpl.Builder) {
			if chkpt {
				b.Chkpt()
			}
			if work != nil {
				b.Work(work)
			}
			b.Send(mpl.Sub(mpl.Rank(), mpl.Int(1)), "x")
			b.Send(mpl.Add(mpl.Rank(), mpl.Int(1)), "x")
			b.Recv(mpl.Sub(mpl.Rank(), mpl.Int(1)), "xl")
			b.Recv(mpl.Add(mpl.Rank(), mpl.Int(1)), "xr")
			b.Assign("x", mpl.Div(mpl.Add(mpl.Add(mpl.V("x"), mpl.V("xl")), mpl.V("xr")), mpl.Int(3)))
			b.Assign("iter", mpl.Add(mpl.V("iter"), mpl.Int(1)))
		}).
		MustProgram()
}

// JacobiFig2 is the paper's Figure 2: the same Jacobi computation, but the
// checkpoint statement is NOT at the same place for every process — even
// ranks checkpoint before the exchange, odd ranks after. As the paper's
// Figure 3 execution shows, straight cuts of checkpoints are then not
// recovery lines: an even process's checkpoint happens-before its odd
// neighbor's.
//
// Communication is paired so the exchange cannot deadlock: even ranks send
// right then receive right; odd ranks receive left then send left.
func JacobiFig2(iters int) *mpl.Program {
	return mpl.NewBuilder("jacobi_fig2").
		Const("MAXITER", iters).
		Vars("x", "y", "iter").
		Assign("x", mpl.Add(mpl.Rank(), mpl.Int(1))).
		Assign("iter", mpl.Int(0)).
		While(mpl.Lt(mpl.V("iter"), mpl.V("MAXITER")), func(b *mpl.Builder) {
			b.IfElse(mpl.Eq(mpl.Mod(mpl.Rank(), mpl.Int(2)), mpl.Int(0)),
				func(b *mpl.Builder) {
					b.Chkpt()
					b.Send(mpl.Add(mpl.Rank(), mpl.Int(1)), "x")
					b.Recv(mpl.Add(mpl.Rank(), mpl.Int(1)), "y")
				},
				func(b *mpl.Builder) {
					b.Recv(mpl.Sub(mpl.Rank(), mpl.Int(1)), "y")
					b.Send(mpl.Sub(mpl.Rank(), mpl.Int(1)), "x")
					b.Chkpt()
				})
			b.Assign("x", mpl.Div(mpl.Add(mpl.V("x"), mpl.V("y")), mpl.Int(2)))
			b.Assign("iter", mpl.Add(mpl.V("iter"), mpl.Int(1)))
		}).
		MustProgram()
}

// Ring is a token-passing ring: rank 0 seeds a token that travels around
// the ring ROUNDS times; every process checkpoints once per round after
// forwarding. Exercises transitive (multi-hop) causality between
// checkpoints.
func Ring(rounds int) *mpl.Program {
	return mpl.NewBuilder("ring").
		Const("ROUNDS", rounds).
		Vars("tok", "r").
		Assign("r", mpl.Int(0)).
		While(mpl.Lt(mpl.V("r"), mpl.V("ROUNDS")), func(b *mpl.Builder) {
			b.IfElse(mpl.Eq(mpl.Rank(), mpl.Int(0)),
				func(b *mpl.Builder) {
					b.Assign("tok", mpl.Add(mpl.V("tok"), mpl.Int(1)))
					b.Send(mpl.Int(1), "tok")
					b.Chkpt()
					b.Recv(mpl.Sub(mpl.Nproc(), mpl.Int(1)), "tok")
				},
				func(b *mpl.Builder) {
					b.Recv(mpl.Sub(mpl.Rank(), mpl.Int(1)), "tok")
					b.Send(mpl.Mod(mpl.Add(mpl.Rank(), mpl.Int(1)), mpl.Nproc()), "tok")
					b.Chkpt()
				})
			b.Assign("r", mpl.Add(mpl.V("r"), mpl.Int(1)))
		}).
		MustProgram()
}

// MasterWorker is a master/worker pattern: rank 0 broadcasts work, workers
// compute and send results back, everyone checkpoints between rounds at
// the same program point.
func MasterWorker(rounds int) *mpl.Program {
	return mpl.NewBuilder("masterworker").
		Const("ROUNDS", rounds).
		Vars("task", "result", "acc", "r", "w").
		Assign("r", mpl.Int(0)).
		While(mpl.Lt(mpl.V("r"), mpl.V("ROUNDS")), func(b *mpl.Builder) {
			b.Chkpt()
			b.Assign("task", mpl.Add(mpl.V("r"), mpl.Int(1))).
				Bcast(mpl.Int(0), "task")
			b.IfElse(mpl.Eq(mpl.Rank(), mpl.Int(0)),
				func(b *mpl.Builder) {
					b.Assign("w", mpl.Int(1))
					b.While(mpl.Lt(mpl.V("w"), mpl.Nproc()), func(b *mpl.Builder) {
						b.Recv(mpl.V("w"), "result")
						b.Assign("acc", mpl.Add(mpl.V("acc"), mpl.V("result")))
						b.Assign("w", mpl.Add(mpl.V("w"), mpl.Int(1)))
					})
				},
				func(b *mpl.Builder) {
					b.Assign("result", mpl.Mul(mpl.V("task"), mpl.Rank()))
					b.Send(mpl.Int(0), "result")
				})
			b.Assign("r", mpl.Add(mpl.V("r"), mpl.Int(1)))
		}).
		MustProgram()
}

// Irregular sends to a data-dependent destination (the paper's "irregular
// computation pattern", §3.2): the matching phase must conservatively
// match such sends with every receive they could feed.
func Irregular() *mpl.Program {
	return mpl.NewBuilder("irregular").
		Vars("v", "dst").
		Chkpt().
		IfElse(mpl.Eq(mpl.Rank(), mpl.Int(0)),
			func(b *mpl.Builder) {
				b.Assign("dst", mpl.Add(mpl.InputAt(mpl.Int(0)), mpl.Int(1)))
				b.Send(mpl.V("dst"), "v")
			},
			func(b *mpl.Builder) {
				b.Recv(mpl.Int(0), "v")
			}).
		Chkpt().
		MustProgram()
}

// PipelineStages is a two-phase pipeline where stage boundaries shift the
// checkpoint location between halves of the machine; the second half
// checkpoints only after receiving, so untransformed straight cuts are
// inconsistent.
func PipelineStages(iters int) *mpl.Program {
	half := mpl.Div(mpl.Nproc(), mpl.Int(2))
	return mpl.NewBuilder("pipeline").
		Const("MAXITER", iters).
		Vars("data", "iter").
		Assign("iter", mpl.Int(0)).
		While(mpl.Lt(mpl.V("iter"), mpl.V("MAXITER")), func(b *mpl.Builder) {
			b.IfElse(mpl.Lt(mpl.Rank(), half),
				func(b *mpl.Builder) {
					b.Chkpt()
					b.Assign("data", mpl.Add(mpl.V("data"), mpl.Rank()))
					b.Send(mpl.Add(mpl.Rank(), half), "data")
				},
				func(b *mpl.Builder) {
					b.Recv(mpl.Sub(mpl.Rank(), half), "data")
					b.Chkpt()
				})
			b.Assign("iter", mpl.Add(mpl.V("iter"), mpl.Int(1)))
		}).
		MustProgram()
}

// AllReduce composes the two collectives into the classic allreduce
// pattern: each round, every process contributes its accumulator to a
// reduce at rank 0, the sum is broadcast back, and everyone folds it in.
// All processes compute identical totals, deterministically.
func AllReduce(rounds int) *mpl.Program {
	return mpl.NewBuilder("allreduce").
		Const("ROUNDS", rounds).
		Vars("acc", "tot", "r").
		Assign("acc", mpl.Add(mpl.Rank(), mpl.Int(1))).
		Assign("r", mpl.Int(0)).
		While(mpl.Lt(mpl.V("r"), mpl.V("ROUNDS")), func(b *mpl.Builder) {
			b.Chkpt()
			b.Assign("tot", mpl.V("acc"))
			b.Reduce(mpl.Int(0), "tot")
			b.Bcast(mpl.Int(0), "tot")
			b.Assign("acc", mpl.Add(mpl.V("acc"), mpl.V("tot")))
			b.Assign("r", mpl.Add(mpl.V("r"), mpl.Int(1)))
		}).
		MustProgram()
}

// ZigzagProne is the canonical useless-checkpoint pattern (Netzer & Xu):
// even ranks checkpoint BETWEEN receiving and sending, while their odd
// partners send and then receive with no checkpoint in between. Every even
// checkpoint then lies on a Z-cycle — it belongs to no consistent global
// snapshot at all, which is strictly worse than Figure 2's placement
// (whose checkpoints are merely not straight-cut-aligned). Phase III
// repairs it by moving the even checkpoint before the receive.
func ZigzagProne(iters int) *mpl.Program {
	return mpl.NewBuilder("zigzagprone").
		Const("MAXITER", iters).
		Vars("a", "b", "iter").
		Assign("iter", mpl.Int(0)).
		While(mpl.Lt(mpl.V("iter"), mpl.V("MAXITER")), func(b *mpl.Builder) {
			b.IfElse(mpl.Eq(mpl.Mod(mpl.Rank(), mpl.Int(2)), mpl.Int(0)),
				func(b *mpl.Builder) {
					b.Recv(mpl.Add(mpl.Rank(), mpl.Int(1)), "a")
					b.Chkpt()
					b.Send(mpl.Add(mpl.Rank(), mpl.Int(1)), "b")
				},
				func(b *mpl.Builder) {
					b.Chkpt()
					b.Send(mpl.Sub(mpl.Rank(), mpl.Int(1)), "a")
					b.Recv(mpl.Sub(mpl.Rank(), mpl.Int(1)), "b")
				})
			b.Assign("iter", mpl.Add(mpl.V("iter"), mpl.Int(1)))
		}).
		MustProgram()
}

// All returns every corpus program (with small iteration counts), keyed by
// name, for sweep-style tests.
func All() map[string]*mpl.Program {
	return map[string]*mpl.Program{
		"jacobi_fig1":  JacobiFig1(3),
		"jacobi_fig2":  JacobiFig2(3),
		"ring":         Ring(3),
		"masterworker": MasterWorker(3),
		"irregular":    Irregular(),
		"pipeline":     PipelineStages(3),
		"zigzagprone":  ZigzagProne(3),
		"allreduce":    AllReduce(3),
		"stencil2d":    Stencil2D(3, 2),
		"stencilskew":  StencilSkewed(3, 2),
	}
}
