package corpus

import "repro/internal/mpl"

// Stencil2D is a five-point 2D stencil on a width-W process grid: each
// cell exchanges with its row neighbors (guarded by column position) and
// its column neighbors (guarded-boundary no-ops at the grid edges), then
// relaxes. The checkpoint sits at the iteration top, so straight cuts are
// recovery lines as written — this is the "real HPC workload" shape the
// paper's Figure 1 abstracts.
//
// Horizontal sends are guarded by column predicates over rank % W; the
// attribute solver resolves these against the receive guards. Vertical
// exchanges rely on guarded-boundary semantics (out-of-grid peers are
// no-ops). Works for any nproc, including ragged last rows.
func Stencil2D(width, iters int) *mpl.Program {
	return stencil("stencil2d", width, iters, false)
}

// StencilSkewed is the same stencil with a Figure 2-style defect: cells in
// even columns checkpoint before the exchange, odd columns after, so
// straight cuts are NOT recovery lines until Phase III repairs the
// placement. The defect involves modulo-width attributes rather than plain
// parity, exercising the solver beyond the Jacobi examples.
func StencilSkewed(width, iters int) *mpl.Program {
	return stencil("stencil_skewed", width, iters, true)
}

func stencil(name string, width, iters int, skewed bool) *mpl.Program {
	col := mpl.Mod(mpl.Rank(), mpl.V("W"))
	lastCol := mpl.Sub(mpl.V("W"), mpl.Int(1))
	hasLeft := mpl.Neq(col, mpl.Int(0))
	hasRight := mpl.Neq(mpl.Mod(mpl.Rank(), mpl.V("W")), lastCol)
	evenCol := mpl.Eq(mpl.Mod(mpl.Mod(mpl.Rank(), mpl.V("W")), mpl.Int(2)), mpl.Int(0))

	exchange := func(b *mpl.Builder) {
		// Horizontal: async sends first, then receives; guards match the
		// mirrored condition on the peer.
		b.If(hasLeft, func(b *mpl.Builder) {
			b.Send(mpl.Sub(mpl.Rank(), mpl.Int(1)), "u")
		})
		b.If(hasRight, func(b *mpl.Builder) {
			b.Send(mpl.Add(mpl.Rank(), mpl.Int(1)), "u")
		})
		b.If(hasLeft, func(b *mpl.Builder) {
			b.Recv(mpl.Sub(mpl.Rank(), mpl.Int(1)), "ul")
		})
		b.If(hasRight, func(b *mpl.Builder) {
			b.Recv(mpl.Add(mpl.Rank(), mpl.Int(1)), "ur")
		})
		// Vertical: guarded-boundary no-ops at the top and bottom rows.
		b.Send(mpl.Sub(mpl.Rank(), mpl.V("W")), "u")
		b.Send(mpl.Add(mpl.Rank(), mpl.V("W")), "u")
		b.Recv(mpl.Sub(mpl.Rank(), mpl.V("W")), "uu")
		b.Recv(mpl.Add(mpl.Rank(), mpl.V("W")), "ud")
	}

	b := mpl.NewBuilder(name).
		Const("W", width).
		Const("ITERS", iters).
		Vars("u", "ul", "ur", "uu", "ud", "it").
		Assign("u", mpl.Mul(mpl.Add(mpl.Rank(), mpl.Int(1)), mpl.Int(10))).
		Assign("it", mpl.Int(0))
	b.While(mpl.Lt(mpl.V("it"), mpl.V("ITERS")), func(b *mpl.Builder) {
		if skewed {
			// Figure 2's defect on the grid: even columns checkpoint
			// before exchanging, odd columns after (balanced counts, both
			// branches carry the exchange).
			b.IfElse(evenCol,
				func(b *mpl.Builder) {
					b.Chkpt()
					exchange(b)
				},
				func(b *mpl.Builder) {
					exchange(b)
					b.Chkpt()
				})
		} else {
			b.Chkpt()
			exchange(b)
		}
		b.Assign("u", mpl.Div(
			mpl.Add(mpl.Add(mpl.Add(mpl.Add(mpl.V("u"), mpl.V("ul")), mpl.V("ur")), mpl.V("uu")), mpl.V("ud")),
			mpl.Int(5)))
		b.Assign("it", mpl.Add(mpl.V("it"), mpl.Int(1)))
	})
	return b.MustProgram()
}
