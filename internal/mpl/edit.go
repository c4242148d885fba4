package mpl

// A Block names one statement list of a program: the body of the While
// statement Owner, the Then list of the If statement Owner or, with Else,
// its Else list — or the program's Body, when Owner is TopLevel.
type Block struct {
	Owner int
	Else  bool
}

// TopLevel is the Block.Owner of a program's Body.
const TopLevel = -1

// Edit is one call's edit of a program. Statements and blocks are
// immutable once built, as expressions are, so an edit changes a program by
// path copying: its first change to a block copies that block and the
// While and If nodes above it, up to the program's Body, which it
// replaces; every other statement and block stays shared with whatever
// else refers to it — the program the edited one was made from, say. The
// copies are the edit's own, so its later changes to them are made in
// place. They are cut from the edit's chunks, as new checkpoints are, and
// which blocks are copies is a bit per statement id.
//
// Program.Edit opens an edit, or joins the one already open on the
// program; Close ends it. Once the outermost Close has ended it, the
// copies are as immutable as every other statement, so the program may be
// shared: the next edit copies again what it changes.
type Edit struct {
	p     *Program
	depth int
	owned []uint64 // bit blockBit(b): block b is this edit's copy
	path  []step   // locate's result, in pathMem while it fits
	// The chunks copies and new checkpoints are cut from, as nodeMem's.
	whiles []While
	ifs    []If
	chkpts []Chkpt
	stmts  []Stmt

	pathMem [8]step
}

// step is one step of a path from a program's Body down to a statement:
// the statement's position in its list and, when the path goes on, which
// of the statement's lists it goes on in.
type step struct {
	i   int32
	els bool
}

// Edit opens an edit of p, or joins the one open on it. The caller must
// Close it.
func (p *Program) Edit() *Edit {
	if p.edit == nil || p.edit.p != p { // a copied Program value edits apart
		p.edit = &Edit{p: p}
		p.edit.path = p.edit.pathMem[:0]
	}
	p.edit.depth++
	return p.edit
}

// Close ends the caller's part of the edit.
func (e *Edit) Close() {
	if e.depth--; e.depth == 0 {
		clear(e.owned)
	}
}

// Chkpt returns a new checkpoint statement with the given id, for Insert.
func (e *Edit) Chkpt(id int) *Chkpt {
	return newNode(&e.chkpts, Chkpt{StmtBase: StmtBase{StmtID: id}})
}

// Insert puts s at position i of block b. It reports false when the
// program has no statement b.Owner, and panics when that has no such list.
func (e *Edit) Insert(b Block, i int, s Stmt) bool {
	list := e.open(b, 1)
	if list == nil {
		return false
	}
	l := (*list)[:len(*list)+1]
	copy(l[i+1:], l[i:])
	l[i] = s
	*list = l
	return true
}

// Remove takes statement id out of its block and returns it; nil when the
// program has no statement id.
func (e *Edit) Remove(id int) Stmt {
	if !e.locate(id) {
		return nil
	}
	n := len(e.path) - 1
	i := int(e.path[n].i)
	list := e.block(e.path[:n], 0)
	l := *list
	s := l[i]
	copy(l[i:], l[i+1:])
	l[len(l)-1] = nil
	*list = l[:len(l)-1]
	return s
}

// Locate returns the block statement id is in and its position there; ok
// is false when the program has no statement id.
func (e *Edit) Locate(id int) (b Block, i int, ok bool) {
	if !e.locate(id) {
		return Block{}, 0, false
	}
	b.Owner = TopLevel
	list := e.p.Body
	n := len(e.path) - 1
	for _, st := range e.path[:n] {
		s := list[st.i]
		b = Block{Owner: s.ID(), Else: st.els}
		list = *arm(s, st.els)
	}
	return b, int(e.path[n].i), true
}

// open returns block b made this edit's own with room for more statements
// at its end, or nil when the program has no statement b.Owner.
func (e *Edit) open(b Block, more int) *[]Stmt {
	if b.Owner == TopLevel {
		return e.block(nil, more)
	}
	if !e.locate(b.Owner) {
		return nil
	}
	e.path[len(e.path)-1].els = b.Else
	return e.block(e.path, more)
}

// block returns the list steps lead to, with room for more statements at
// its end, made this edit's own with every list and node on the way there:
// one that is not yet is copied, and the copy put where the original was.
// The lists a call copies are cut from the chunk together.
func (e *Edit) block(steps []step, more int) *[]Stmt {
	e.reserve(e.copies(steps, more))
	list := &e.p.Body
	if bit := blockBit(TopLevel, false); !e.owns(bit) {
		*list = e.copyBlock(*list, roomAt(0, steps, more))
		e.mark(bit)
	}
	for k, st := range steps {
		s := (*list)[st.i]
		bit := blockBit(s.ID(), st.els)
		if !e.owns(bit) {
			// The node is a copy once one of its blocks is: a While has
			// one, an If two.
			if _, ok := s.(*If); !ok || !e.owns(bit^1) {
				s = e.copyNode(s)
				(*list)[st.i] = s
			}
			l := arm(s, st.els)
			*l = e.copyBlock(*l, roomAt(k+1, steps, more))
			e.mark(bit)
		}
		list = arm(s, st.els)
	}
	if l := *list; cap(l)-len(l) < more {
		*list = e.copyBlock(l, more) // a copy this edit has filled
	}
	return list
}

// roomAt is the room block gives the k-th list on the path steps lead
// along: more for the last, none for those above it.
func roomAt(k int, steps []step, more int) int {
	if k == len(steps) {
		return more
	}
	return 0
}

// copies returns how many list slots block(steps, more) cuts.
func (e *Edit) copies(steps []step, more int) int {
	n := 0
	list := e.p.Body
	owned := e.owns(blockBit(TopLevel, false))
	for _, st := range steps {
		if !owned {
			n += len(list)
		}
		s := list[st.i]
		owned = e.owns(blockBit(s.ID(), st.els))
		list = *arm(s, st.els)
	}
	if !owned || cap(list)-len(list) < more {
		n += len(list) + more
	}
	return n
}

// arm returns the list of s a step goes on in: a While's body, an If's
// Then or, with els, its Else.
func arm(s Stmt, els bool) *[]Stmt {
	switch st := s.(type) {
	case *While:
		if !els {
			return &st.Body
		}
	case *If:
		if els {
			return &st.Else
		}
		return &st.Then
	}
	panic("mpl: Edit: " + DescribeStmt(s) + " has no such statement list")
}

// copyNode copies a While or If. The chunks start at one node: an edit
// copies few, as few as one of each for a small program.
func (e *Edit) copyNode(s Stmt) Stmt {
	switch st := s.(type) {
	case *While:
		if e.whiles == nil {
			e.whiles = make([]While, 0, 1)
		}
		return newNode(&e.whiles, *st)
	case *If:
		if e.ifs == nil {
			e.ifs = make([]If, 0, 1)
		}
		return newNode(&e.ifs, *st)
	}
	panic("mpl: Edit: " + DescribeStmt(s) + " has no statement list")
}

// copyBlock returns a copy of list with room for more statements.
func (e *Edit) copyBlock(list []Stmt, more int) []Stmt {
	out := cut(&e.stmts, len(list)+more)[:len(list)]
	copy(out, list)
	return out
}

// reserve makes room for n list slots in the chunk copies are cut from.
func (e *Edit) reserve(n int) {
	if cap(e.stmts)-len(e.stmts) < n {
		e.stmts = make([]Stmt, 0, n)
	}
}

// blockBit numbers the lists of statement id: 2(id+1) and 2(id+1)+1 for
// an If's Then and Else, 2(id+1) for a While's body, 0 for the program's.
func blockBit(id int, els bool) int {
	if els {
		return 2*(id+1) + 1
	}
	return 2 * (id + 1)
}

func (e *Edit) owns(bit int) bool {
	return bit/64 < len(e.owned) && e.owned[bit/64]&(1<<(bit%64)) != 0
}

func (e *Edit) mark(bit int) {
	if bit/64 >= len(e.owned) {
		// Sized once for every statement of the program: edits add
		// checkpoints, never a statement with a block.
		n := max(bit, blockBit(e.p.MaxStmtID(), true))/64 + 1
		e.owned = append(e.owned, make([]uint64, n-len(e.owned))...)
	}
	e.owned[bit/64] |= 1 << (bit % 64)
}

// locate sets e.path to the steps from the program's Body to statement id.
func (e *Edit) locate(id int) bool {
	var ok bool
	e.path, ok = find(e.path[:0], e.p.Body, id)
	return ok
}

// find appends to path the steps from body to statement id; it returns
// path as it was when body holds no statement id.
func find(path []step, body []Stmt, id int) ([]step, bool) {
	for i, s := range body {
		if s.ID() == id {
			return append(path, step{i: int32(i)}), true
		}
		var ok bool
		switch st := s.(type) {
		case *While:
			if path, ok = find(append(path, step{i: int32(i)}), st.Body, id); ok {
				return path, true
			}
			path = path[:len(path)-1]
		case *If:
			if path, ok = find(append(path, step{i: int32(i)}), st.Then, id); ok {
				return path, true
			}
			if path, ok = find(append(path[:len(path)-1], step{i: int32(i), els: true}), st.Else, id); ok {
				return path, true
			}
			path = path[:len(path)-1]
		}
	}
	return path, false
}
