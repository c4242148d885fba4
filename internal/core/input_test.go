package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mpl"
	"repro/internal/verify"
)

// TestTransformDoesNotMutateInput transforms every corpus program and the
// eight large generated ones: the input must print as before, and no
// statement of it may be reachable from the output. (Expressions are
// shared: they are immutable.)
func TestTransformDoesNotMutateInput(t *testing.T) {
	progs := corpus.All()
	for seed := int64(1); seed <= 8; seed++ {
		progs[fmt.Sprintf("large_%d", seed)] = verify.GenerateLarge(seed, 6)
	}
	for name, p := range progs {
		before := mpl.Format(p)
		input := make(map[mpl.Stmt]bool)
		mpl.Walk(p.Body, func(s mpl.Stmt) bool { input[s] = true; return true })
		rep, err := core.Transform(p, core.DefaultConfig)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mpl.Format(p) != before {
			t.Errorf("%s: input mutated", name)
		}
		mpl.Walk(rep.Program.Body, func(s mpl.Stmt) bool {
			if input[s] {
				t.Errorf("%s: output holds the input's statement %s", name, mpl.DescribeStmt(s))
			}
			return true
		})
	}
}
