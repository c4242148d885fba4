package corpus_test

import (
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
