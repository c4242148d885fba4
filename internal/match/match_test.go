package match

import (
	"testing"

	"repro/internal/attr"
	"repro/internal/cfg"
	"repro/internal/corpus"
	"repro/internal/mpl"
)

func buildExt(t *testing.T, p *mpl.Program, opts Options) *Extended {
	t.Helper()
	x, err := BuildExtended(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// nodesOf returns the ids of the CFG nodes of the given kind, in id order.
func nodesOf(x *Extended, kind cfg.NodeKind) []int {
	var ids []int
	for _, n := range x.G.Nodes {
		if n.Kind == kind {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

func hasEdge(x *Extended, s, r int) bool {
	for _, m := range x.Messages {
		if m.Send == s && m.Recv == r {
			return true
		}
	}
	return false
}

func TestAttributesJacobiFig2(t *testing.T) {
	x := buildExt(t, corpus.JacobiFig2(2), Options{})
	// The sends of the two branches, even branch first.
	sends := nodesOf(x, cfg.KindSend)
	evenPred := x.PathAttr[sends[0]]
	oddPred := x.PathAttr[sends[1]]
	if len(evenPred) != 1 || !evenPred[0].Want {
		t.Errorf("even path attribute = %v", evenPred)
	}
	if len(oddPred) != 1 || oddPred[0].Want {
		t.Errorf("odd path attribute = %v", oddPred)
	}
	if !evenPred.HoldsAt(2, 4) || evenPred.HoldsAt(3, 4) {
		t.Error("even attribute evaluates wrong")
	}
	// Statements outside the if carry no ID-dependent constraints.
	topAttr := x.PathAttr[x.G.Entry+1]
	if len(topAttr) != 0 {
		t.Errorf("top-level attribute = %v, want empty", topAttr)
	}
}

func TestMatchJacobiFig2(t *testing.T) {
	x := buildExt(t, corpus.JacobiFig2(2), Options{})
	sends := nodesOf(x, cfg.KindSend)
	recvs := nodesOf(x, cfg.KindRecv)
	if len(sends) != 2 || len(recvs) != 2 {
		t.Fatalf("sends=%v recvs=%v", sends, recvs)
	}
	// Builder order: even branch first (send then recv), odd branch second
	// (recv then send).
	evenSend, oddSend := sends[0], sends[1]
	evenRecv, oddRecv := recvs[0], recvs[1]
	if evenSend > evenRecv {
		t.Fatalf("node order assumption broken: %v %v", sends, recvs)
	}
	if !hasEdge(x, evenSend, oddRecv) {
		t.Error("even send must match odd recv")
	}
	if !hasEdge(x, oddSend, evenRecv) {
		t.Error("odd send must match even recv")
	}
	if hasEdge(x, evenSend, evenRecv) {
		t.Error("even send cannot match even recv (parity contradiction)")
	}
	if hasEdge(x, oddSend, oddRecv) {
		t.Error("odd send cannot match odd recv (parity contradiction)")
	}
	if len(x.Messages) != 2 {
		t.Errorf("messages = %v, want exactly 2", x.Messages)
	}
}

func TestMatchJacobiFig1(t *testing.T) {
	x := buildExt(t, corpus.JacobiFig1(2), Options{})
	sends := nodesOf(x, cfg.KindSend)
	recvs := nodesOf(x, cfg.KindRecv)
	if len(sends) != 2 || len(recvs) != 2 {
		t.Fatalf("sends=%v recvs=%v", sends, recvs)
	}
	leftSend, rightSend := sends[0], sends[1] // send(rank-1), send(rank+1)
	leftRecv, rightRecv := recvs[0], recvs[1] // recv(rank-1), recv(rank+1)
	// send(rank-1) is received by the left neighbor as coming from its
	// rank+1 side.
	if !hasEdge(x, leftSend, rightRecv) {
		t.Error("send(rank-1) must match recv(rank+1)")
	}
	if !hasEdge(x, rightSend, leftRecv) {
		t.Error("send(rank+1) must match recv(rank-1)")
	}
	if hasEdge(x, leftSend, leftRecv) {
		t.Error("send(rank-1) cannot match recv(rank-1)")
	}
	if hasEdge(x, rightSend, rightRecv) {
		t.Error("send(rank+1) cannot match recv(rank+1)")
	}
}

func TestMatchIrregularIsLiberal(t *testing.T) {
	x := buildExt(t, corpus.Irregular(), Options{})
	sends := nodesOf(x, cfg.KindSend)
	recvs := nodesOf(x, cfg.KindRecv)
	if len(sends) != 1 || len(recvs) != 1 {
		t.Fatalf("sends=%v recvs=%v", sends, recvs)
	}
	if !hasEdge(x, sends[0], recvs[0]) {
		t.Error("irregular send must match the receive")
	}
	if !x.Params[sends[0]].Wildcard {
		t.Error("irregular send parameter should be wildcard")
	}
}

func TestMatchBcastSelfEdge(t *testing.T) {
	x := buildExt(t, corpus.MasterWorker(1), Options{})
	bcasts := nodesOf(x, cfg.KindBcast)
	if len(bcasts) != 1 {
		t.Fatalf("bcasts = %v", bcasts)
	}
	if !hasEdge(x, bcasts[0], bcasts[0]) {
		t.Error("bcast must carry a self message edge")
	}
}

func TestMatchFaithfulOneToOne(t *testing.T) {
	// Two sends could both feed one receive; the default (paper-faithful)
	// mode matches each regular send only once, in program order.
	src := `
program multi
var x
proc {
    if rank == 0 {
        send(1, x)
        send(1, x)
    } else {
        recv(0, x)
        recv(0, x)
    }
}
`
	p, err := mpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	faithful := buildExt(t, p, Options{})
	liberal := buildExt(t, p, Options{Liberal: true})
	if len(liberal.Messages) != 4 {
		t.Errorf("liberal matches = %d, want 4 (all pairs)", len(liberal.Messages))
	}
	if len(faithful.Messages) != 2 {
		t.Errorf("faithful matches = %d, want 2 (one per send)", len(faithful.Messages))
	}
	// Order-respecting pairing: send k ↔ recv k.
	sends := nodesOf(faithful, cfg.KindSend)
	recvs := nodesOf(faithful, cfg.KindRecv)
	if !hasEdge(faithful, sends[0], recvs[0]) || !hasEdge(faithful, sends[1], recvs[1]) {
		t.Errorf("pairing not in order: %+v", faithful.Messages)
	}
}

func TestMatchNoFalseBackwardEdges(t *testing.T) {
	// Two identical exchange motifs in sequence: FIFO order means motif
	// 2's send can never feed motif 1's receive. The default matcher must
	// not create such an edge (liberal mode does, by design).
	src := `
program twomotif
var a, tmp
proc {
    if rank % 2 == 0 {
        send(rank + 1, a)
        recv(rank + 1, tmp)
    } else {
        recv(rank - 1, tmp)
        send(rank - 1, a)
    }
    if rank % 2 == 0 {
        send(rank + 1, a)
        recv(rank + 1, tmp)
    } else {
        recv(rank - 1, tmp)
        send(rank - 1, a)
    }
}
`
	p, err := mpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	x := buildExt(t, p, Options{})
	sends := nodesOf(x, cfg.KindSend)
	recvs := nodesOf(x, cfg.KindRecv)
	if len(sends) != 4 || len(recvs) != 4 {
		t.Fatalf("sends=%v recvs=%v", sends, recvs)
	}
	// The two if statements split the graph into motif 1 and motif 2;
	// any edge from a motif-2 send to a motif-1 recv is a false backward
	// edge (FIFO makes it impossible at runtime).
	branches := nodesOf(x, cfg.KindBranch)
	if len(branches) != 2 {
		t.Fatalf("branches = %v", branches)
	}
	motif2Start := branches[1]
	for _, m := range x.Messages {
		if m.Send > motif2Start && m.Recv < motif2Start {
			t.Errorf("false backward edge: send node %d -> recv node %d", m.Send, m.Recv)
		}
	}
	if len(x.Messages) != 4 {
		t.Errorf("messages = %d, want 4 (one per send)", len(x.Messages))
	}
	liberal := buildExt(t, p, Options{Liberal: true})
	if len(liberal.Messages) <= 4 {
		t.Errorf("liberal should over-match: %d edges", len(liberal.Messages))
	}
}

func TestMatchUnmatchedRecvFallback(t *testing.T) {
	// One send statement feeds two different receive statements (the
	// one-to-one pass would leave the second bare); the fallback must
	// still match it so Lemma 3.1's guarantee holds.
	src := `
program fan
var x
proc {
    if rank == 0 {
        send(1, x)
    } else {
        recv(0, x)
        recv(0, x)
    }
}
`
	p, err := mpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	x := buildExt(t, p, Options{})
	recvs := nodesOf(x, cfg.KindRecv)
	inbound := map[int]int{}
	for _, m := range x.Messages {
		inbound[m.Recv]++
	}
	for _, r := range recvs {
		if inbound[r] == 0 {
			t.Errorf("recv node %d left unmatched", r)
		}
	}
}

func TestCausalPathJacobiFig2(t *testing.T) {
	p := corpus.JacobiFig2(2)
	x := buildExt(t, p, Options{})
	chks := nodesOf(x, cfg.KindChkpt)
	if len(chks) != 2 {
		t.Fatalf("chkpts = %v", chks)
	}
	evenChk, oddChk := chks[0], chks[1]
	// Even checkpoints before sending; odd checkpoints after receiving:
	// a back-edge-free causal path even→odd must exist.
	if !x.CausallyReaches(evenChk, oddChk) {
		t.Fatal("no causal path even→odd checkpoint")
	}
	if x.CausalNeedsBack(evenChk, oddChk) {
		t.Error("even→odd path should not need a back edge")
	}
	// odd→even causality exists only across loop iterations (back edge).
	if !x.CausallyReaches(oddChk, evenChk) {
		t.Fatal("no causal path odd→even checkpoint (expected one via loop)")
	}
	if !x.CausalNeedsBack(oddChk, evenChk) {
		t.Error("odd→even path must traverse a back edge")
	}
}

func TestCausalPathRequiresMessage(t *testing.T) {
	// Program with checkpoints on both branches but NO messages at all: no
	// causal path may be reported even where control paths exist.
	src := `
program nomsg
var x
proc {
    if rank % 2 == 0 {
        chkpt
    } else {
        chkpt
    }
    x = 1
}
`
	p, err := mpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	x := buildExt(t, p, Options{})
	for _, chk := range nodesOf(x, cfg.KindChkpt) {
		if x.ReachableExtended(chk, false).Count() < 2 {
			t.Fatalf("checkpoint %d reaches nothing by control edges", chk)
		}
		for b := range x.G.Nodes {
			if x.CausallyReaches(chk, b) {
				t.Errorf("message-free program has a causal path %d→%d", chk, b)
			}
		}
	}
}

func TestCausalPathSelfViaLoop(t *testing.T) {
	// A checkpoint inside a messaging loop reaches itself causally across
	// iterations (via the back edge).
	p := corpus.JacobiFig1(2)
	x := buildExt(t, p, Options{})
	chk := nodesOf(x, cfg.KindChkpt)[0]
	if !x.CausallyReaches(chk, chk) {
		t.Fatal("no self causal path through loop")
	}
	if !x.CausalNeedsBack(chk, chk) {
		t.Error("self path must use the loop back edge")
	}
}

func TestMatchSolverBoundsRespected(t *testing.T) {
	// With MaxProcs=2 a destination of rank+2 can never land in range.
	src := `
program far
var x
proc {
    if rank == 0 {
        send(rank + 2, x)
    } else {
        recv(rank - 2, x)
    }
}
`
	p, err := mpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	narrow := buildExt(t, p, Options{Solver: attr.Solver{MinProcs: 2, MaxProcs: 2}})
	if len(narrow.Messages) != 0 {
		t.Errorf("narrow solver matched %v", narrow.Messages)
	}
	wide := buildExt(t, p, Options{Solver: attr.Solver{MinProcs: 2, MaxProcs: 8}})
	if len(wide.Messages) != 1 {
		t.Errorf("wide solver matches = %v, want 1", wide.Messages)
	}
}

func TestMessageEdgesAsCFG(t *testing.T) {
	x := buildExt(t, corpus.JacobiFig2(1), Options{})
	edges := x.MessageEdgesAsCFG()
	if len(edges) != len(x.Messages) {
		t.Fatalf("converted %d edges, want %d", len(edges), len(x.Messages))
	}
	dot := x.G.DOT("test", edges)
	if dot == "" {
		t.Fatal("empty DOT")
	}
}

func TestAllCorpusMatches(t *testing.T) {
	for name, p := range corpus.All() {
		t.Run(name, func(t *testing.T) {
			x := buildExt(t, p, Options{})
			// Every recv should have at least one incoming message edge
			// (Lemma 3.1: the true correspondent is among the matches) —
			// in our corpus every receive is really fed by some send.
			inbound := make(map[int]int)
			for _, m := range x.Messages {
				inbound[m.Recv]++
			}
			for _, r := range nodesOf(x, cfg.KindRecv) {
				if inbound[r] == 0 {
					t.Errorf("recv node %d (%s) unmatched", r, x.G.Nodes[r].Label())
				}
			}
		})
	}
}

func BenchmarkBuildExtendedJacobi(b *testing.B) {
	p := corpus.JacobiFig2(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildExtended(p, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
