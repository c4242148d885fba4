// Protocols compares the checkpointing protocols of the paper's §4.1 on
// the same master/worker workload: the application-driven (coordination-
// free) scheme, synchronize-and-stop (SaS), Chandy-Lamport snapshots, and
// communication-induced checkpointing — reporting the coordination traffic
// each one pays per checkpoint and verifying that all deliver consistent
// recovery lines.
package main

import (
	"fmt"
	"log"

	"repro/internal/corpus"
	"repro/internal/protocol"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
)

func main() {
	const n, rounds = 6, 3
	prog := corpus.MasterWorker(rounds)

	type entry struct {
		name  string
		hooks sim.HooksFactory
	}
	entries := []entry{
		{"appl-driven", nil},
		{"SaS", protocol.SaS()},
		{"C-L", protocol.CL()},
		{"CIC", protocol.CIC()},
	}

	fmt.Printf("%-12s %8s %8s %8s %8s\n", "protocol", "ckpts", "forced", "ctrl", "ctrl/ckpt")
	for _, e := range entries {
		res, err := sim.Run(sim.Config{Program: prog, Nproc: n, Hooks: e.hooks})
		if err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		m := res.Metrics
		perCkpt := float64(m.CtrlMessages) / float64(m.TotalCheckpoints())
		fmt.Printf("%-12s %8d %8d %8d %8.2f", e.name, m.Checkpoints, m.Forced, m.CtrlMessages, perCkpt)
		if ok, bad := allIndexCutsConsistent(res.Store, n); ok {
			fmt.Printf("   all cuts consistent ✓\n")
		} else {
			fmt.Printf("   INCONSISTENT cut at index %d ✗\n", bad)
		}
	}
}

// allIndexCutsConsistent checks every complete checkpoint index in stable
// storage for orphan messages (recovery.Consistent).
func allIndexCutsConsistent(st storage.Store, n int) (bool, int) {
	indexes, err := st.Indexes(n)
	if err != nil {
		return false, -1
	}
	for _, idx := range indexes {
		cut := make([]storage.Snapshot, n)
		for p := 0; p < n; p++ {
			s, err := st.Latest(p, idx)
			if err != nil {
				return false, idx
			}
			cut[p] = s
		}
		if _, _, ok := recovery.Consistent(cut); !ok {
			return false, idx
		}
	}
	return true, 0
}
