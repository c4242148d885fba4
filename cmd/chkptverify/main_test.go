package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSmallRunIsClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-progs", "3", "-depth", "4"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "OK: 3 programs, ") ||
		!strings.Contains(out.String(), "every straight cut is a recovery line") {
		t.Errorf("no summary line:\n%s", out.String())
	}
}

func TestMalformedNprocsIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-nprocs", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2: %s", code, errb.String())
	}
	if errb.Len() == 0 {
		t.Error("usage error printed nothing to stderr")
	}
}
