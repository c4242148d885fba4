package core_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mpl"
	"repro/internal/verify"
)

// This file holds Transform and Verify to DESIGN decision 17's pool rule:
// the workspace Phases II–III borrow is lent memory, never results.

// dump renders everything a report holds, the transformed program and its
// enumeration included, so that two dumps differ when any of it changed.
func dump(rep *core.Report) string {
	ph := rep.Phase3
	enum := new(cfg.Enumeration)
	err := cfg.EnumerateInto(rep.Program, enum)
	return fmt.Sprintf("%s\nquiet %v\nphase1 %+v\ninitial %+v\nmoves %+v\norderings %+v\nequalized %v\nresidual %+v\nenum %v %v %v\n%d %d %d",
		mpl.Format(rep.Program), rep.Program.Quiet, rep.Phase1, ph.InitialViolations, ph.Moves, ph.Orderings,
		ph.EqualizedStmts, ph.Residual, enum.Index, enum.Count, err,
		ph.CoalescedStmts, ph.Iterations, ph.QuietSends)
}

func sortedNames(progs map[string]*mpl.Program) []string {
	var names []string
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestTransformLendsNoResults transforms A and dumps its report, then
// transforms a larger B and a smaller C, whose workspaces are A's memory
// rebuilt, and checks that A's report still dumps the same. The same for
// Verify's violations.
func TestTransformLendsNoResults(t *testing.T) {
	all := corpus.All()
	var progs []*mpl.Program
	for _, name := range sortedNames(all) {
		progs = append(progs, all[name])
	}
	for seed := int64(1); seed <= 3; seed++ {
		progs = append(progs, verify.GenerateLarge(seed, 6))
	}
	larger, smaller := verify.GenerateLarge(9, 12), corpus.JacobiFig2(2)
	for _, a := range progs {
		rep, err := core.Transform(a, core.DefaultConfig)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		// Verify refuses a program whose branches hold unequal checkpoint
		// counts (Phase I equalizes them), as some generated ones do: the
		// workspace goes back on that path too.
		violations, err := core.Verify(a, core.DefaultConfig)
		before, vBefore := dump(rep), fmt.Sprintf("%+v %v", violations, err)
		for _, b := range []*mpl.Program{larger, smaller} {
			if _, err := core.Transform(b, core.DefaultConfig); err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			core.Verify(b, core.DefaultConfig)
		}
		if after := dump(rep); after != before {
			t.Errorf("%s: report changed by later transforms\nbefore:\n%s\nafter:\n%s", a.Name, before, after)
		}
		if vAfter := fmt.Sprintf("%+v %v", violations, err); vAfter != vBefore {
			t.Errorf("%s: Verify's violations changed by later calls: %s, were %s", a.Name, vAfter, vBefore)
		}
	}
}

// TestTransformConcurrent runs Transform over the corpus from 8 goroutines,
// each in its own order, and holds every report to the serial one: the
// pool hands a workspace to one call at a time. Then all 8 transform one
// input at once, which every output shares statements with (mpl.Edit):
// under -race, as CI runs it, a write into a shared node is a race.
func TestTransformConcurrent(t *testing.T) {
	all := corpus.All()
	names := sortedNames(all)
	want := map[string]string{}
	for _, name := range names {
		rep, err := core.Transform(all[name], core.DefaultConfig)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name] = dump(rep)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range names {
				name := names[(i+g)%len(names)]
				rep, err := core.Transform(all[name], core.DefaultConfig)
				if err != nil {
					t.Errorf("goroutine %d, %s: %v", g, name, err)
					return
				}
				if got := dump(rep); got != want[name] {
					t.Errorf("goroutine %d, %s: report differs from the serial one\ngot:\n%s\nwant:\n%s", g, name, got, want[name])
				}
			}
		}()
	}
	wg.Wait()

	for _, shared := range []*mpl.Program{verify.GenerateLarge(1, 6), corpus.JacobiFig2(4)} {
		rep, err := core.Transform(shared, core.DefaultConfig)
		if err != nil {
			t.Fatalf("%s: %v", shared.Name, err)
		}
		serial := dump(rep)
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				rep, err := core.Transform(shared, core.DefaultConfig)
				if err != nil {
					t.Errorf("goroutine %d, shared %s: %v", g, shared.Name, err)
					return
				}
				if got := dump(rep); got != serial {
					t.Errorf("goroutine %d, shared %s: report differs from the serial one\ngot:\n%s\nwant:\n%s", g, shared.Name, got, serial)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}
