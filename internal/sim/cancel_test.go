package sim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/mpl"
	"repro/internal/storage"
)

func TestCancelBeforeStartReturnsErrCanceled(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	_, err := Run(Config{
		Program: corpus.JacobiFig1(3), Nproc: 3,
		Timeout: 5 * time.Second, Cancel: cancel,
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestCancelAbortsBlockedIncarnation(t *testing.T) {
	// Rank 0 checkpoints, then blocks on a receive nobody answers. Without
	// cancellation only the (long) watchdog would end the run; the cancel
	// must abort it promptly, return ErrCanceled, and leave the checkpoint
	// in the store — the job is parked, not lost.
	p, err := mpl.Parse(`
program parkme
var x
proc {
    chkpt
    if rank == 0 {
        recv(1, x)
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewMemory()
	cancel := make(chan struct{})
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := Run(Config{
			Program: p, Nproc: 2, Store: st,
			Timeout: 30 * time.Second, Cancel: cancel,
		})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not end the run")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancel took %v, want prompt abort", elapsed)
	}
	snaps, err := st.List(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Error("canceled run lost its checkpoint: store empty for proc 0")
	}

	// Parked is not yet resumable (ROADMAP item 5): a later Run over the
	// same store starts at incarnation 0 from the initial state, and its
	// first checkpoint collides with the one left behind. The PR that lands
	// cold-start resume inverts this: the second run picks up at the parked
	// run's recovery line.
	_, err = Run(Config{Program: p, Nproc: 2, Store: st, Timeout: 5 * time.Second})
	if !errors.Is(err, storage.ErrDuplicate) {
		t.Errorf("second Run over the parked store: err = %v, want storage.ErrDuplicate", err)
	}
}
