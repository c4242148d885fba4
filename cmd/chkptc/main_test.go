package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fig2Src = `
program jacobi
const MAXITER = 3
var x, y, iter
proc {
    iter = 0
    while iter < MAXITER {
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, x)
            recv(rank + 1, y)
        } else {
            recv(rank - 1, y)
            send(rank - 1, x)
            chkpt
        }
        iter = iter + 1
    }
}
`

func writeTemp(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.mpl")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckDetectsViolation(t *testing.T) {
	path := writeTemp(t, fig2Src)
	var out, errb strings.Builder
	code := run([]string{"-check", path}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "VIOLATION") {
		t.Errorf("output = %q", out.String())
	}
}

func TestCheckPassesSafeProgram(t *testing.T) {
	safe := strings.Replace(fig2Src,
		"recv(rank - 1, y)\n            send(rank - 1, x)\n            chkpt",
		"chkpt\n            recv(rank - 1, y)\n            send(rank - 1, x)", 1)
	path := writeTemp(t, safe)
	var out, errb strings.Builder
	code := run([]string{"-check", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "OK") {
		t.Errorf("output = %q", out.String())
	}
}

func TestTransformOutputIsSafeAndReparses(t *testing.T) {
	path := writeTemp(t, fig2Src)
	var out, errb strings.Builder
	if code := run([]string{"-report", path}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "transformation report") {
		t.Errorf("report missing: %q", errb.String())
	}
	// The emitted program must pass -check.
	outPath := writeTemp(t, out.String())
	var out2, err2 strings.Builder
	if code := run([]string{"-check", "-no-insert", outPath}, &out2, &err2); code != 0 {
		t.Fatalf("transformed output fails check: %s%s", out2.String(), err2.String())
	}
}

func TestDotOutput(t *testing.T) {
	path := writeTemp(t, fig2Src)
	dotPath := filepath.Join(t.TempDir(), "g.dot")
	var out, errb strings.Builder
	if code := run([]string{"-dot", dotPath, path}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
	dot, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dot), "digraph") || !strings.Contains(string(dot), "msg") {
		t.Errorf("dot output missing content")
	}
}

func TestOutputFileFlag(t *testing.T) {
	path := writeTemp(t, fig2Src)
	outPath := filepath.Join(t.TempDir(), "out.mpl")
	var out, errb strings.Builder
	if code := run([]string{"-o", outPath, path}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
	if out.Len() != 0 {
		t.Error("stdout not empty with -o")
	}
	if _, err := os.Stat(outPath); err != nil {
		t.Fatal(err)
	}
}

func TestBaseMode(t *testing.T) {
	path := writeTemp(t, fig2Src)
	var out, errb strings.Builder
	if code := run([]string{"-mode", "base", path}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
	// Base mode moves the checkpoints out of the loop: the loop body must
	// contain no chkpt.
	txt := out.String()
	loopStart := strings.Index(txt, "while")
	if loopStart < 0 {
		t.Fatal("loop vanished")
	}
	if strings.Contains(txt[loopStart:], "chkpt") {
		t.Errorf("base mode left checkpoints in the loop:\n%s", txt)
	}
}

func TestVerifyRuntimeFlag(t *testing.T) {
	path := writeTemp(t, fig2Src)
	var out, errb strings.Builder
	if code := run([]string{"-verify-runtime", path}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "runtime verification: n=2 ok") ||
		!strings.Contains(errb.String(), "n=5 ok") {
		t.Errorf("verification output missing: %q", errb.String())
	}
}

func TestBadUsage(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{}, &out, &errb); code != 2 {
		t.Errorf("no args exit = %d, want 2", code)
	}
	if code := run([]string{"-mode", "bogus", writeTemp(t, fig2Src)}, &out, &errb); code != 2 {
		t.Errorf("bad mode exit = %d, want 2", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.mpl")}, &out, &errb); code != 1 {
		t.Errorf("missing file exit = %d, want 1", code)
	}
	if code := run([]string{writeTemp(t, "not a program")}, &out, &errb); code != 1 {
		t.Errorf("parse error exit = %d, want 1", code)
	}
}

// -report counts the send statements whose messages the runtime may log: in
// the repaired Figure 2 Jacobi no straight cut has a message in flight, so
// none; in a ring whose last rank sends before its checkpoint and rank 0
// receives after its own, the forwarding send, which the other ranks share.
func TestReportCountsLoggedSends(t *testing.T) {
	ring := `
program ring
var tok, r
proc {
    r = 0
    while r < 3 {
        if rank == 0 {
            send(1, tok)
            chkpt
            recv(nproc - 1, tok)
        } else {
            recv(rank - 1, tok)
            send((rank + 1) % nproc, tok)
            chkpt
        }
        r = r + 1
    }
}
`
	for _, tc := range []struct{ src, want string }{
		{fig2Src, "sends logged 0 of 2 "},
		{ring, "sends logged 1 of 2 "},
	} {
		var out, errb strings.Builder
		if code := run([]string{"-report", writeTemp(t, tc.src)}, &out, &errb); code != 0 {
			t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("report %q, want a line starting %q", errb.String(), tc.want)
		}
	}
}
