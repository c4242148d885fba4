package core

import (
	"fmt"
	"testing"

	"repro/internal/attr"
	"repro/internal/corpus"
	"repro/internal/mpl"
)

func transformKeepingLoops(t *testing.T, p *mpl.Program) *Report {
	t.Helper()
	rep, err := Transform(p, Config{PreserveLoops: true, SkipInsert: true})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// quietBeyondBound fails the test if the program holds a channel quiet at a
// process count past the solver's bound, where nothing is proved.
func quietBeyondBound(t *testing.T, rep *Report) {
	t.Helper()
	for n := attr.DefaultSolver.MaxProcs + 1; n <= 64; n++ {
		for from := 0; from < n; from++ {
			if row := rep.Program.Quiet.Row(n, from); row != 0 {
				t.Errorf("%s: channels %b from %d quiet at n=%d, past the bound", rep.Program.Name, row, from, n)
			}
		}
	}
}

// Transform holds a channel quiet, at a process count, exactly when the
// counts prove no straight cut has a message in flight on it there. The
// paper's programs exchange halos between one iteration's checkpoints:
// every channel they use is quiet at every count of the bound, and no send
// is logged. A send before its checkpoint received after the receiver's, a
// loop that sends more than it receives, and every shape the counting
// cannot speak for keep their channels logged.
func TestTransformMarksChannelsThatCannotCross(t *testing.T) {
	for _, p := range []*mpl.Program{corpus.JacobiFig2(64), corpus.Stencil2D(4, 4), corpus.JacobiFig1(3)} {
		rep := transformKeepingLoops(t, p)
		if logged, sends := rep.SendsLogged(); logged > 0 || sends == 0 {
			t.Errorf("%s: %d of %d sends logged, want none", p.Name, logged, sends)
		}
		quietBeyondBound(t, rep)
	}
	jacobi := transformKeepingLoops(t, corpus.JacobiFig2(64))
	for n := attr.DefaultSolver.MinProcs; n <= attr.DefaultSolver.MaxProcs; n++ {
		for even := 0; even+1 < n; even += 2 {
			if !jacobi.Program.Quiet.Has(n, even, even+1) || !jacobi.Program.Quiet.Has(n, even+1, even) {
				t.Errorf("jacobi: channels %d<->%d not quiet at n=%d", even, even+1, n)
			}
		}
	}

	body := func(loop string) string {
		return fmt.Sprintf("program p\nvar d, y, it\nproc {\n    it = 0\n    %s\n}\n", loop)
	}
	type ch struct{ from, to int }
	for _, tc := range []struct {
		name   string
		src    string
		logged int  // of the sends
		quiet  []ch // at n = 4; every other channel must log
	}{
		{"crossing", body(`while it < 3 {
        if rank % 2 == 0 { send(rank + 1, d)
            chkpt } else { chkpt
            recv(rank - 1, d) }
        it = it + 1 }`), 1, nil},
		{"unbalanced loop", body(`while it < 3 { chkpt
        send(rank + 1, d)
        send(rank + 1, d)
        recv(rank - 1, d)
        it = it + 1 }`), 2, nil},
		{"one channel of two", body(`while it < 3 { chkpt
        send(rank + 1, d)
        recv(rank - 1, d)
        if rank == nproc - 1 { send(0, d) }
        it = it + 1 }
        chkpt
        if rank == 0 { recv(nproc - 1, d)
            recv(nproc - 1, d)
            recv(nproc - 1, d) }`), 1, []ch{{0, 1}, {1, 2}, {2, 3}}},
		{"rank-dependent trip count", body(`while it < rank { chkpt
        send(rank + 1, d)
        recv(rank - 1, d)
        it = it + 1 }`), 1, nil},
		{"received trip count", body(`while y < 3 { chkpt
        send(rank + 1, d)
        recv(rank - 1, y) }`), 1, nil},
		{"data-dependent branch", body(`while it < 3 { chkpt
        if input(it) > 0 { send(rank + 1, d) }
        recv(rank - 1, d)
        it = it + 1 }`), 1, nil},
		{"collective", body(`while it < 3 { chkpt
        send(rank + 1, d)
        recv(rank - 1, d)
        bcast(0, d)
        it = it + 1 }`), 1, nil},
		// A guard on nproc alone takes the same arm in every iteration, and
		// Phase II's path attributes say at which counts.
		{"rank-free guard", body(`while it < 3 { chkpt
        if nproc > 3 { send(rank + 1, d) }
        if nproc > 3 { recv(rank - 1, d) }
        it = it + 1 }`), 0, []ch{{0, 1}, {1, 2}, {2, 3}}},
		// Only rank 20 sends, so no count of the bound runs the send: its
		// channel is quiet nowhere, and the send counts as logged.
		{"past the bound", body(`if rank == 20 { send(0, d) }
        chkpt
        if rank == 0 { recv(20, d) }`), 1, nil},
	} {
		p, err := mpl.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rep := transformKeepingLoops(t, p)
		if logged, _ := rep.SendsLogged(); logged != tc.logged {
			t.Errorf("%s: %d sends logged, want %d\n%s", tc.name, logged, tc.logged, mpl.Format(rep.Program))
		}
		for from := 0; from < 4; from++ {
			for to := 0; to < 4; to++ {
				want := false
				for _, c := range tc.quiet {
					want = want || c == ch{from, to}
				}
				if got := rep.Program.Quiet.Has(4, from, to); got != want {
					t.Errorf("%s: channel %d->%d quiet at n=4: %v, want %v", tc.name, from, to, got, want)
				}
			}
		}
		quietBeyondBound(t, rep)
	}
}
