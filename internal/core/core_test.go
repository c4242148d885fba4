package core

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mpl"
)

func TestTransformBareProgramInsertsAndPlaces(t *testing.T) {
	src := `
program bare
var x, i
proc {
    i = 0
    while i < 4 {
        if rank % 2 == 0 {
            send(rank + 1, x)
            recv(rank + 1, x)
        } else {
            recv(rank - 1, x)
            send(rank - 1, x)
        }
        i = i + 1
    }
}
`
	p, err := mpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Transform(p, DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phase1 == nil || len(rep.Phase1.Inserted) == 0 {
		t.Fatal("Phase I did not insert checkpoints")
	}
	if rep.CheckpointCount() < 1 {
		t.Fatal("no checkpoint indexes in result")
	}
	violations, err := Verify(rep.Program, DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Errorf("transformed program not safe: %+v", violations)
	}
}

func TestTransformJacobiFig2(t *testing.T) {
	rep, err := Transform(corpus.JacobiFig2(3), DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phase3 == nil || len(rep.Phase3.InitialViolations) == 0 {
		t.Error("Fig2 initial violations not reported")
	}
	if len(rep.Phase3.Moves) == 0 {
		t.Error("Fig2 should require moves")
	}
	violations, err := Verify(rep.Program, DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Errorf("still violating: %+v", violations)
	}
}

func TestTransformSkipInsert(t *testing.T) {
	rep, err := Transform(corpus.JacobiFig1(2), Config{SkipInsert: true, PreserveLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phase1 != nil {
		t.Error("Phase I ran despite SkipInsert")
	}
}

func TestExtendedDOT(t *testing.T) {
	dot, err := ExtendedDOT(corpus.JacobiFig2(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph", "msg", "chkpt"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestVerifyFlagsUntransformed(t *testing.T) {
	violations, err := Verify(corpus.JacobiFig2(2), DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) == 0 {
		t.Error("Verify missed Fig2's violation")
	}
	safe, err := Verify(corpus.JacobiFig1(2), DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if len(safe) != 0 {
		t.Errorf("Fig1 flagged: %+v", safe)
	}
}

func TestTransformWholeCorpus(t *testing.T) {
	for name, p := range corpus.All() {
		t.Run(name, func(t *testing.T) {
			rep, err := Transform(p, DefaultConfig)
			if err != nil {
				t.Fatal(err)
			}
			violations, err := Verify(rep.Program, DefaultConfig)
			if err != nil {
				t.Fatal(err)
			}
			if len(violations) != 0 {
				t.Errorf("unsafe result: %+v", violations)
			}
		})
	}
}

func BenchmarkTransformCorpus(b *testing.B) {
	progs := corpus.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := Transform(p, DefaultConfig); err != nil {
				b.Fatal(err)
			}
		}
	}
}
