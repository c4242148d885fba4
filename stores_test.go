package repro_test

import (
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/wal"
)

// storeKinds are the kinds openTestStore opens.
var storeKinds = []string{"memory", "incremental", "wal"}

// openTestStore opens a fresh store of the named kind for a bench or soak
// test — the one place the root-level tests construct stable storage. The
// incremental store takes a full snapshot every fullEvery saves; the WAL
// (opened with opts, closed with the test) lives in a directory of its own
// under tb.TempDir.
func openTestStore(tb testing.TB, kind string, fullEvery int, opts wal.Options) storage.Store {
	tb.Helper()
	switch kind {
	case "memory":
		return storage.NewMemory()
	case "incremental":
		return storage.NewIncremental(fullEvery)
	case "wal":
		ws, err := wal.Open(tb.TempDir(), opts)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { ws.Close() })
		return ws
	}
	tb.Fatalf("unknown store kind %q", kind)
	return nil
}
