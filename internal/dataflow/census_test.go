package dataflow_test

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataflow"
	"repro/internal/mpl"
	"repro/internal/verify"
)

// TestAnalysisCensus pins what the rank analysis derives over the corpus and
// the generated programs the harness and the analysis-large workload draw:
// a SHA-256 of every program's Params and Branches, in statement-id order.
// A change to how the fixpoint compares or builds abstract values must
// leave it as it is.
func TestAnalysisCensus(t *testing.T) {
	d := sha256.New()
	var params, branches int
	census := func(p *mpl.Program) {
		r := dataflow.Analyze(p)
		params += len(r.Params)
		branches += len(r.Branches)
		for _, id := range sortedKeys(r.Params) {
			fmt.Fprintf(d, "p%d %s\n", id, r.Params[id])
		}
		for _, id := range sortedKeys(r.Branches) {
			b := r.Branches[id]
			res := "-"
			if b.Resolved != nil {
				res = mpl.ExprString(b.Resolved)
			}
			fmt.Fprintf(d, "b%d %s %t %t\n", id, res, b.IDDependent, b.Uniform)
		}
		d.Write([]byte{'\n'})
	}
	progs := corpus.All()
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		census(progs[name])
	}
	for seed := int64(1); seed <= 2000; seed++ {
		census(verify.Generate(seed))
	}
	for seed := int64(1); seed <= 8; seed++ {
		census(verify.GenerateLarge(seed, 6))
	}
	const wantDigest = "71e6c944834d7febdc944e7cc0d6642c1d7841669138980566bf7e5cda3e3092"
	if got := fmt.Sprintf("%x", d.Sum(nil)); got != wantDigest || params != 12233 || branches != 7224 {
		t.Errorf("%d params, %d branches, digest %s; want 12233, 7224, %s", params, branches, got, wantDigest)
	}
}

func sortedKeys[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
