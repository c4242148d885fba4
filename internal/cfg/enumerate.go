package cfg

import (
	"fmt"

	"repro/internal/mpl"
)

// This file enumerates checkpoint statements: the C_i of §2. The paper
// enumerates checkpoint nodes along every entry→exit path; a checkpoint
// statement inside a loop keeps the same index in every iteration
// (Definition 2.3). Enumeration is well-defined only when every path
// assigns the same index to each checkpoint — the property Phase I's
// equalization step ("we may add/remove some of the checkpoints to ensure
// that every path of the CFG has the same number of checkpoint nodes")
// establishes. Because MPL programs are structured, we enumerate directly
// on the AST: if-branches must contain the same number of checkpoints, and
// a while body contributes its checkpoints exactly once.

// AmbiguousError reports that checkpoint indexing differs across paths, with
// the statement at which the mismatch is detected.
type AmbiguousError struct {
	Stmt mpl.Stmt
	Msg  string
}

// Error implements error.
func (e *AmbiguousError) Error() string {
	return fmt.Sprintf("cfg: ambiguous checkpoint enumeration at %s: %s", mpl.DescribeStmt(e.Stmt), e.Msg)
}

// Enumeration maps checkpoint statement ids to indexes (1-based).
type Enumeration struct {
	// Index maps chkpt statement id -> checkpoint index i.
	Index map[int]int
	// Count is the number of distinct indexes (the m of Algorithm 3.2).
	Count int
}

// Enumerate assigns checkpoint indexes to every chkpt statement of the
// program. It fails with *AmbiguousError when two paths disagree — i.e.
// when an if statement's branches contain different numbers of checkpoints
// (Phase I must equalize first).
func Enumerate(p *mpl.Program) (*Enumeration, error) {
	enum := &Enumeration{}
	if err := EnumerateInto(p, enum); err != nil {
		return nil, err
	}
	return enum, nil
}

// EnumerateInto is Enumerate writing into an existing Enumeration,
// reusing its map storage — for callers (Phase III's fixpoint) that
// re-enumerate the same program many times.
func EnumerateInto(p *mpl.Program, enum *Enumeration) error {
	if enum.Index == nil {
		enum.Index = make(map[int]int)
	} else {
		clear(enum.Index)
	}
	end, err := enumerateBody(p.Body, 0, enum)
	if err != nil {
		return err
	}
	enum.Count = end
	return nil
}

// enumerateBody walks stmts assigning indexes starting after `seen`
// checkpoints; it returns the total checkpoints seen after the body.
func enumerateBody(body []mpl.Stmt, seen int, enum *Enumeration) (int, error) {
	for _, s := range body {
		switch st := s.(type) {
		case *mpl.Chkpt:
			seen++
			enum.Index[st.ID()] = seen
		case *mpl.While:
			// The body's checkpoints are indexed once; iterations repeat
			// the same indexes (Definition 2.3).
			end, err := enumerateBody(st.Body, seen, enum)
			if err != nil {
				return 0, err
			}
			seen = end
		case *mpl.If:
			thenEnd, err := enumerateBody(st.Then, seen, enum)
			if err != nil {
				return 0, err
			}
			elseEnd, err := enumerateBody(st.Else, seen, enum)
			if err != nil {
				return 0, err
			}
			if thenEnd != elseEnd {
				return 0, &AmbiguousError{
					Stmt: st,
					Msg: fmt.Sprintf("then-branch yields %d checkpoints, else-branch %d",
						thenEnd-seen, elseEnd-seen),
				}
			}
			seen = thenEnd
		}
	}
	return seen, nil
}
