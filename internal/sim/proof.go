package sim

import (
	"errors"
	"fmt"

	"repro/internal/attr"
	"repro/internal/match"
	"repro/internal/mpl"
)

// ErrUnprovedN refuses a run of the paper's protocol at a process count the
// program's proof does not reach: Phase II pairs sends with receives over
// attr.DefaultSolver's range only, and at this n it pairs a send with a
// receive it pairs at no count of that range.
var ErrUnprovedN = errors.New("sim: process count outside the program's proof")

// CheckProof returns an ErrUnprovedN error naming the first such pair at
// n; Run calls it for the paper's protocol at an n past the range. With
// none, every pair at n is one Phase III checked, and its verdict, a path
// search over Ĝ's edges, covers n (DESIGN decision 35).
func CheckProof(p *mpl.Program, n int) error {
	x, err := match.BuildExtended(p, match.Options{})
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	s, r, unproved := x.Unproved(n)
	if !unproved {
		return nil
	}
	lo, hi := attr.DefaultSolver.Bounds()
	return fmt.Errorf("%w: at n = %d, %s feeds %s, which no n of the checked range [%d, %d] pairs",
		ErrUnprovedN, n, x.G.Nodes[s].Label(), x.G.Nodes[r].Label(), lo, hi)
}
