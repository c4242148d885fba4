package sim

import (
	"errors"
	"fmt"

	"repro/internal/attr"
	"repro/internal/match"
	"repro/internal/mpl"
)

// ErrUnprovedN refuses a run of the paper's protocol at a process count the
// program's proof does not reach: Phase II decides its message edges over
// attr.DefaultSolver's range only, and at this n a send can feed a receive
// it feeds at no count of that range.
var ErrUnprovedN = errors.New("sim: process count outside the program's proof")

// CheckProof returns an ErrUnprovedN error when some send can feed some
// receive at exactly n, an n past attr.DefaultSolver's range, but at no n
// of that range; Run calls it for the paper's protocol at such an n. It
// compares compatible pairs, not the edges Phase II's one-to-one pass
// picks, so no matching order hides a pair. Every pair that is compatible
// at n is then compatible where Phase III checked, and its verdict, a
// path search over Ĝ's edges, covers n (DESIGN decision 35, which also
// names what this does not reach: pairs the one-to-one pass leaves out at
// every n).
func CheckProof(p *mpl.Program, n int) error {
	at, err := match.BuildExtended(p, match.Options{Solver: attr.Solver{MinProcs: n, MaxProcs: n}, Liberal: true})
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	for _, m := range at.Messages {
		s, r := m.Send, m.Recv
		if s == r || attr.DefaultSolver.CanMatch(at.PathAttr[s], at.Params[s], at.PathAttr[r], at.Params[r]) {
			continue
		}
		return fmt.Errorf("%w: at n = %d, %s feeds %s, which no n of the checked range [%d, %d] pairs",
			ErrUnprovedN, n, at.G.Nodes[s].Label(), at.G.Nodes[r].Label(),
			attr.DefaultSolver.MinProcs, attr.DefaultSolver.MaxProcs)
	}
	return nil
}
