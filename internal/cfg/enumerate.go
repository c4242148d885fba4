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
	end, bad := enumerateBody(p.Body, 0, enum)
	if bad.at != nil {
		return &AmbiguousError{
			Stmt: bad.at,
			Msg:  fmt.Sprintf("then-branch yields %d checkpoints, else-branch %d", bad.then, bad.els),
		}
	}
	enum.Count = end
	return nil
}

// Unbalanced returns the if statement Enumerate would report for body —
// the first, in program order, whose branches carry different numbers of
// checkpoints while every if inside it is balanced — and the two numbers;
// nil when body's checkpoint enumeration is unambiguous.
func Unbalanced(body []mpl.Stmt) (at *mpl.If, thenN, elseN int) {
	_, bad := enumerateBody(body, 0, nil)
	return bad.at, bad.then, bad.els
}

// imbalance is an if statement whose branches carry different numbers of
// checkpoints.
type imbalance struct {
	at        *mpl.If
	then, els int
}

// enumerateBody walks stmts assigning indexes starting after `seen`
// checkpoints (recording them when enum is non-nil); it returns the total
// checkpoints seen after the body, or the first imbalance it meets.
func enumerateBody(body []mpl.Stmt, seen int, enum *Enumeration) (int, imbalance) {
	for _, s := range body {
		switch st := s.(type) {
		case *mpl.Chkpt:
			seen++
			if enum != nil {
				enum.Index[st.ID()] = seen
			}
		case *mpl.While:
			// The body's checkpoints are indexed once; iterations repeat
			// the same indexes (Definition 2.3).
			end, bad := enumerateBody(st.Body, seen, enum)
			if bad.at != nil {
				return 0, bad
			}
			seen = end
		case *mpl.If:
			thenEnd, bad := enumerateBody(st.Then, seen, enum)
			if bad.at != nil {
				return 0, bad
			}
			elseEnd, bad := enumerateBody(st.Else, seen, enum)
			if bad.at != nil {
				return 0, bad
			}
			if thenEnd != elseEnd {
				return 0, imbalance{st, thenEnd - seen, elseEnd - seen}
			}
			seen = thenEnd
		}
	}
	return seen, imbalance{}
}
