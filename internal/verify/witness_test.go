package verify

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/match"
	"repro/internal/mpl"
	"repro/internal/sim"
)

// witnesses returns the programs under testdata/witness, keyed by file
// name without its extension: far (an exchange only n ≥ 20 reaches), the
// gap programs, whose receives a one-to-one scan of statements gave a
// decoy sender at every n, and loopgap and aligngap, whose second message
// reaches a receive in a loop.
func witnesses(t testing.TB) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "witness", "*.mpl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no witnesses: %v", err)
	}
	out := make(map[string]string, len(files))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimSuffix(filepath.Base(f), ".mpl")] = string(src)
	}
	return out
}

func parseWitness(t *testing.T, src string) *mpl.Program {
	t.Helper()
	p, err := mpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// recoversAt runs p on the runtime at each n and requires every straight
// cut of the trace to be a recovery line.
func recoversAt(t *testing.T, name string, p *mpl.Program, ns ...int) {
	t.Helper()
	for _, n := range ns {
		res, err := sim.Run(sim.Config{Program: p, Nproc: n, Input: DefaultInput})
		if err != nil {
			t.Errorf("%s at n = %d: %v", name, n, err)
			continue
		}
		chk, err := CheckTrace(res.Trace)
		if err != nil {
			t.Fatalf("%s at n = %d: %v", name, n, err)
		}
		for _, v := range chk.Violations {
			t.Errorf("%s at n = %d: %s", name, n, v)
		}
	}
}

// Each gap witness places checkpoints no straight cut of which is a
// recovery line once its receive's true sender is an edge of Ĝ: Condition
// 1 fails, and the transform repairs the placement.
func TestGapWitnessesAreRepaired(t *testing.T) {
	srcs := witnesses(t)
	for _, name := range []string{"gap", "gap2", "gap3"} {
		p := parseWitness(t, srcs[name])
		violations, err := core.Verify(p, core.DefaultConfig)
		if err != nil || len(violations) == 0 {
			t.Errorf("%s: Verify = %v, %v; want a violation", name, violations, err)
		}
		rep, err := core.Transform(p, core.DefaultConfig)
		if err != nil {
			t.Errorf("%s: the transform refused it: %v", name, err)
			continue
		}
		recoversAt(t, name, rep.Program, 2, 3, 5)
	}
}

// loopgap's second send feeds the receive's second iteration: Ĝ has that
// edge, so base placement sees the violation and repairs it. (Preserve mode
// still certifies the program; TESTING lists the escape.)
func TestLoopgapEdgeAndBaseRepair(t *testing.T) { secondSendEdgeAndBaseRepair(t, "loopgap") }

// aligngap's loop runs rank + 1 times, so rank 1 receives once more than
// rank 0 sends in it, and the send after the loop feeds that extra
// iteration. Pairing the two ranks' loops as if they ran equally often left
// the edge out of Ĝ, and both modes certified the program; a loop whose
// condition is not uniform now crosses the rest of the channel. (Preserve
// mode still certifies it, as it does loopgap; TESTING lists the escape.)
func TestAligngapEdgeAndBaseRepair(t *testing.T) { secondSendEdgeAndBaseRepair(t, "aligngap") }

// secondSendEdgeAndBaseRepair requires Ĝ to pair both sends of witness name
// with its one receive, and base mode to report a violation and repair it.
func secondSendEdgeAndBaseRepair(t *testing.T, name string) {
	p := parseWitness(t, witnesses(t)[name])
	x, err := match.BuildExtended(p, match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sends, recvs []int
	for _, nd := range x.G.Nodes {
		switch nd.Stmt.(type) {
		case *mpl.Send:
			sends = append(sends, nd.ID)
		case *mpl.Recv:
			recvs = append(recvs, nd.ID)
		}
	}
	if len(x.Messages) != 2 || len(sends) != 2 || len(recvs) != 1 {
		t.Fatalf("messages %+v over sends %v and receives %v, want both sends feeding the receive", x.Messages, sends, recvs)
	}
	for i, m := range x.Messages {
		if m.Send != sends[i] || m.Recv != recvs[0] {
			t.Errorf("message %d = %+v, want %d -> %d", i, m, sends[i], recvs[0])
		}
	}
	base := core.Config{PreserveLoops: false}
	if violations, err := core.Verify(p, base); err != nil || len(violations) == 0 {
		t.Errorf("base Verify = %v, %v; want a violation", violations, err)
	}
	rep, err := core.Transform(p, base)
	if err != nil {
		t.Fatal(err)
	}
	recoversAt(t, name+" (base)", rep.Program, 2, 3, 5)
}

// The oracle for Phase II's pairing (Lemma 3.1): on one schedule at n ∈
// [2, 5], every delivered message names a send statement and a receive
// statement that Ĝ pairs. Collectives carry their own self edge and are
// not checked here.
func TestDeliveredMessagesAreEdges(t *testing.T) {
	progs := map[string]*mpl.Program{}
	for name, p := range corpus.All() {
		progs[name] = p
	}
	for seed := int64(1); seed <= 200; seed++ {
		progs[fmt.Sprintf("gen_%d", seed)] = Generate(seed)
	}
	for name, src := range witnesses(t) {
		progs[name] = parseWitness(t, src)
	}
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	delivered := 0
	for _, name := range names {
		p := progs[name]
		code, err := sim.Compile(p)
		if err != nil {
			// Checkpoints the runtime cannot number: the transformed
			// program has the same communication and numbered ones.
			rep, terr := core.Transform(p, core.DefaultConfig)
			if terr != nil {
				t.Fatalf("%s: %v; %v", name, err, terr)
			}
			p = rep.Program
			if code, err = sim.Compile(p); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		x, err := match.BuildExtended(p, match.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		edges := map[[2]int]bool{}
		for _, m := range x.Messages {
			edges[[2]int{x.G.Nodes[m.Send].Stmt.ID(), x.G.Nodes[m.Recv].Stmt.ID()}] = true
		}
		for n := 2; n <= 5; n++ {
			pairs := deliveredPairs(t, code, n)
			delivered += len(pairs)
			for _, pair := range pairs {
				if !edges[pair] {
					t.Errorf("%s at n = %d: stmt #%d's message reached stmt #%d, which Ĝ does not pair", name, n, pair[0], pair[1])
				}
			}
		}
	}
	if delivered < len(names) {
		t.Errorf("%d messages delivered over %d programs", delivered, len(names))
	}
}

// deliveredPairs runs code at n, always stepping the lowest enabled
// process, and returns the (send statement, receive statement) of every
// point-to-point message delivered before the run ends or deadlocks.
func deliveredPairs(t *testing.T, code *sim.Code, n int) [][2]int {
	t.Helper()
	m, err := NewMachine(code, n, DefaultInput)
	if err != nil {
		t.Fatal(err)
	}
	type msgKey struct{ from, to, seq int }
	sentBy := map[msgKey]int{}
	var out [][2]int
	for en := m.Enabled(); len(en) > 0; en = m.Enabled() {
		p := en[0]
		ps := m.procs[p]
		in := code.Instrs[ps.pc]
		switch {
		case ps.park.kind == parkSend && in.Op == sim.OpSend:
			sentBy[msgKey{p, ps.park.peer, ps.sendSeq[ps.park.peer]}] = in.StmtID
		case ps.park.kind == parkRecv && in.Op == sim.OpRecv:
			src := ps.park.peer
			if s, ok := sentBy[msgKey{src, p, m.chans[src][p][0].seq}]; ok {
				out = append(out, [2]int{s, in.StmtID})
			}
		}
		if err := m.Step(p); err != nil {
			break // a budget or evaluation error ends the run; what it delivered stands
		}
	}
	return out
}
