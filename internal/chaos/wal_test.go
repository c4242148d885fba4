package chaos

import (
	"testing"

	"repro/internal/storage/wal"
)

// TestWALInjectorDeterminism: the same seed must produce byte-identical
// decisions for the same consult stream — that is what makes a walchaos
// failure replayable from its seed.
func TestWALInjectorDeterminism(t *testing.T) {
	decide := func() []wal.Fault {
		wi := NewWALInjector(42, WALRates{CrashRate: 0.1, FlipRate: 0.1})
		var out []wal.Fault
		for seq := uint64(0); seq < 800; seq++ {
			out = append(out, wi.Decide(wal.OpAppend, seq, 512))
			out = append(out, wi.Decide(wal.OpSync, seq, 0))
		}
		return out
	}
	a, b := decide(), decide()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across replays: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestWALInjectorSeedsDiffer: different seeds must produce different fault
// patterns (the matrix is not vacuously replaying one schedule).
func TestWALInjectorSeedsDiffer(t *testing.T) {
	pattern := func(seed int64) []wal.Fault {
		wi := NewWALInjector(seed, WALRates{CrashRate: 0.2, FlipRate: 0.2})
		var out []wal.Fault
		for seq := uint64(0); seq < 500; seq++ {
			out = append(out, wi.Decide(wal.OpAppend, seq, 256))
		}
		return out
	}
	a, b := pattern(1), pattern(2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 1 and 2 drew identical fault patterns")
	}
}

// TestWALInjectorRates: empirical fault frequency tracks the configured
// rates over a large consult stream.
func TestWALInjectorRates(t *testing.T) {
	const n = 20000
	wi := NewWALInjector(7, WALRates{CrashRate: 0.05, FlipRate: 0.1})
	kills, flips := 0, 0
	for seq := uint64(0); seq < n; seq++ {
		f := wi.Decide(wal.OpAppend, seq, 1024)
		if f.Kill != wal.KillNone {
			kills++
		}
		if f.Flip {
			flips++
		}
	}
	if got := float64(kills) / n; got < 0.03 || got > 0.07 {
		t.Errorf("kill frequency %.4f, want ~0.05", got)
	}
	if got := float64(flips) / n; got < 0.07 || got > 0.13 {
		t.Errorf("flip frequency %.4f, want ~0.10", got)
	}
	st := wi.Stats()
	if int(st.Kills) != kills || int(st.Flips) != flips {
		t.Errorf("stats (%d kills, %d flips) disagree with observed (%d, %d)",
			st.Kills, st.Flips, kills, flips)
	}
	if st.TornKills == 0 {
		t.Error("no kill ever tore an append — Keep is never drawn")
	}
}

// TestWALInjectorZeroRates never faults.
func TestWALInjectorZeroRates(t *testing.T) {
	wi := NewWALInjector(3, WALRates{})
	for seq := uint64(0); seq < 1000; seq++ {
		if f := wi.Decide(wal.OpAppend, seq, 128); f != (wal.Fault{}) {
			t.Fatalf("zero-rate injector faulted: %+v", f)
		}
	}
}
