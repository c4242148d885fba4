package corpus_test

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mpl"
	"repro/internal/sim"
)

// TestAllProgramsTransformAndRun: every corpus program is well-formed,
// survives the three-phase transformation, and computes the same final
// state at n=4 before and after it — moving checkpoints must not change
// what the program computes. The irregular program is the one exception
// to n=4: its single data-dependent send feeds one receiver, so it only
// terminates with two processes.
func TestAllProgramsTransformAndRun(t *testing.T) {
	for name, prog := range corpus.All() {
		t.Run(name, func(t *testing.T) {
			if err := mpl.Check(prog); err != nil {
				t.Fatalf("Check: %v", err)
			}
			cfg := sim.Config{Program: prog, Nproc: 4, Input: func(rank, i int) int { return 0 }}
			if name == "irregular" {
				cfg.Nproc = 2
			}
			before, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("run before transform: %v", err)
			}
			rep, err := core.Transform(prog, core.DefaultConfig)
			if err != nil {
				t.Fatalf("Transform: %v", err)
			}
			cfg.Program = rep.Program
			after, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("run after transform: %v", err)
			}
			if len(before.FinalVars) != cfg.Nproc || !reflect.DeepEqual(before.FinalVars, after.FinalVars) {
				t.Errorf("FinalVars diverged:\nbefore: %v\nafter:  %v", before.FinalVars, after.FinalVars)
			}
		})
	}
}

// TestJacobiPinned holds the two programs the one Jacobi builder makes to
// the bytes they printed when each had a builder of its own: JacobiFig1 at
// 0–8 iterations, and chkptbench's runtime figure (4 iterations of 300000
// work units, with and without its checkpoint).
func TestJacobiPinned(t *testing.T) {
	for _, g := range []struct {
		name  string
		progs []*mpl.Program
		want  string
	}{
		{"JacobiFig1(0..8)", func() (ps []*mpl.Program) {
			for iters := 0; iters <= 8; iters++ {
				ps = append(ps, corpus.JacobiFig1(iters))
			}
			return ps
		}(), "051b587eba18b93219e221d492f95339319e3eb328819268409d7a91aee29bb1"},
		{"JacobiHeavy(4, 300000, chkpt and not)", []*mpl.Program{
			corpus.JacobiHeavy(4, 300000, true), corpus.JacobiHeavy(4, 300000, false),
		}, "857362731359ffa6a1d1bdcab4d6b2ca1060b9bd7add6f48784f8a7db1b075f5"},
	} {
		h := sha256.New()
		for _, p := range g.progs {
			h.Write([]byte(mpl.Format(p)))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != g.want {
			t.Errorf("%s: sha256 %s, want %s", g.name, got, g.want)
		}
	}
}
