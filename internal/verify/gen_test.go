package verify

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mpl"
)

// TestGeneratorsPinned holds corpus.Random, Generate and GenerateLarge to
// the programs they produced before their shared motifs moved into one
// emitter: a SHA-256 over the formatted program of every seed in [-1, 199].
// chkptbench's domino figure, the analysis-large workload and every seeded
// test depend on these programs, so a change here is a change of the
// corpus, not a refactor.
func TestGeneratorsPinned(t *testing.T) {
	for _, g := range []struct {
		name string
		gen  func(int64) *mpl.Program
		want string
	}{
		{"corpus.Random", corpus.Random, "716adba3eff34637ba6b5672bbf26e5228725261077f94f3c417f5fca17a5ee2"},
		{"verify.Generate", Generate, "a372461707990c5e1c64fd3f6268ce053face5123e6476ff2022544adfb106ef"},
		{"verify.GenerateLarge(s, 3)", func(s int64) *mpl.Program { return GenerateLarge(s, 3) }, "22179d60fd07f0d1f5700bd31350af8e89dd7f643dc9f95297611c5d8fb38f96"},
	} {
		h := sha256.New()
		for s := int64(-1); s <= 199; s++ {
			h.Write([]byte(mpl.Format(g.gen(s))))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != g.want {
			t.Errorf("%s over seeds [-1, 199]: sha256 %s, want %s", g.name, got, g.want)
		}
	}
}
