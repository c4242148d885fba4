package protocol

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/mpl"
	"repro/internal/sim"
)

// heavyJacobi builds the Figure 1 exchange with ~300 s of computation per
// iteration, the paper's programmed interval T.
func heavyJacobi(iters, workUnits int) *mpl.Program {
	return mpl.NewBuilder("jacobi_heavy").
		Const("MAXITER", iters).
		Vars("x", "xl", "xr", "iter").
		Assign("iter", mpl.Int(0)).
		While(mpl.Lt(mpl.V("iter"), mpl.V("MAXITER")), func(b *mpl.Builder) {
			b.Chkpt()
			b.Work(mpl.Int(workUnits))
			b.Send(mpl.Sub(mpl.Rank(), mpl.Int(1)), "x")
			b.Send(mpl.Add(mpl.Rank(), mpl.Int(1)), "x")
			b.Recv(mpl.Sub(mpl.Rank(), mpl.Int(1)), "xl")
			b.Recv(mpl.Add(mpl.Rank(), mpl.Int(1)), "xr")
			b.Assign("iter", mpl.Add(mpl.V("iter"), mpl.Int(1)))
		}).
		MustProgram()
}

// TestEmpiricalOverheadProperties pins the virtual-time (makespan)
// behavior of the protocols on a balanced workload:
//
//   - the application-driven scheme's overhead is EXACTLY iters·o on the
//     critical path — coordination-free means nothing else;
//   - appl-driven is the cheapest at every n;
//   - SaS's overhead grows with n (the coordinator serializes 3(n−1)
//     message setups per round);
//   - measured makespans differ from the paper's analytic charging, which
//     adds the full message count M to every process's interval (see
//     EXPERIMENTS.md).
func TestEmpiricalOverheadProperties(t *testing.T) {
	const iters, units = 3, 50000
	tm := sim.PaperTimeModel
	measure := func(n int, hooks sim.HooksFactory) float64 {
		t.Helper()
		res, err := sim.Run(sim.Config{
			Program: heavyJacobi(iters, units), Nproc: n,
			Hooks: hooks, Time: &tm, DisableTrace: true,
			Timeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.VTime
	}

	base := float64(iters*units)*tm.Compute + 0.005 /* handful of assigns/sends */
	var prevSaS float64
	for _, n := range []int{2, 4, 8} {
		appl := measure(n, nil)
		sas := measure(n, SaS())
		cl := measure(n, CL())

		wantAppl := float64(iters) * tm.CheckpointOverhead
		gotOverhead := appl - float64(iters*units)*tm.Compute
		if math.Abs(gotOverhead-wantAppl) > 0.1 {
			t.Errorf("n=%d: appl overhead = %v, want ≈ %v (iters·o)", n, gotOverhead, wantAppl)
		}
		if !(appl < sas) || !(appl < cl) {
			t.Errorf("n=%d: appl %v not cheapest (SaS %v, C-L %v)", n, appl, sas, cl)
		}
		if prevSaS != 0 && !(sas > prevSaS) {
			t.Errorf("n=%d: SaS makespan did not grow with n: %v then %v", n, prevSaS, sas)
		}
		prevSaS = sas
		if appl < base {
			t.Errorf("n=%d: appl %v below bare compute %v", n, appl, base)
		}
	}
}

// TestTimedFailureWithProtocolFreeScheme ensures a crash under the paper's
// time model composes with the coordination-free scheme end to end: the
// crash costs lost work plus R and the answer is unchanged.
func TestTimedFailureWithProtocolFreeScheme(t *testing.T) {
	tm := sim.PaperTimeModel
	prog := corpus.JacobiFig1(3)
	clean, err := sim.Run(sim.Config{Program: prog, Nproc: 3, Time: &tm, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	failed, err := sim.Run(sim.Config{
		Program: prog, Nproc: 3, Time: &tm,
		Failures: []sim.Failure{{Proc: 1, AfterEvents: len(clean.Trace.Events()[1]) * 6 / 10}},
		Timeout:  20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed.Restarts != 1 {
		t.Fatalf("restarts = %d", failed.Restarts)
	}
	if failed.VTime < clean.VTime+tm.Recovery {
		t.Errorf("failed VTime = %v, want >= clean %v + R %v", failed.VTime, clean.VTime, tm.Recovery)
	}
	if !reflect.DeepEqual(clean.FinalVars, failed.FinalVars) {
		t.Error("failed run diverged")
	}
}
