// Package cli holds the wiring the command-line tools share: what a -store
// spec opens, the -events-out stream, the live-telemetry start/stop
// sequence, and the pprof profile pair. Flag names and help strings stay
// with each command; what a flag's value does lives here once.
package cli

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/telemetry"
)

// ErrUsage marks a malformed flag value.
var ErrUsage = errors.New("usage")

// ExitCode is the exit status for a failed command: 2 for ErrUsage, else 1.
func ExitCode(err error) int {
	if errors.Is(err, ErrUsage) {
		return 2
	}
	return 1
}

// Closer returns the function a command defers its flush/teardown steps
// through: an error from a step is reported on stderr under the command's
// name and turns a zero exit code into 1.
func Closer(name string, stderr io.Writer, code *int) func(step func() error) {
	return func(step func() error) {
		if err := step(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			if *code == 0 {
				*code = 1
			}
		}
	}
}

// Store is an opened -store spec. Incremental and WAL are set for the
// kinds that report statistics; both are nil for the memory store.
type Store struct {
	Store       storage.Store
	Incremental *storage.Incremental
	WAL         *wal.Store
}

// OpenStore opens the stable storage a -store flag names:
//
//	mem          a fresh in-memory store
//	incremental  an in-memory delta-encoding store
//	wal:DIR      the durable group-commit log rooted at DIR
//
// Anything else is ErrUsage, a bare path included: a directory is only ever
// opened as a log when the spec says wal:.
func OpenStore(spec string) (*Store, error) {
	switch dir, isWAL := strings.CutPrefix(spec, "wal:"); {
	case spec == "mem":
		return &Store{Store: storage.NewMemory()}, nil
	case spec == "incremental":
		inc := storage.NewIncremental(0)
		return &Store{Store: inc, Incremental: inc}, nil
	case isWAL && dir != "":
		ws, err := wal.Open(dir, wal.Options{})
		if err != nil {
			return nil, err
		}
		return &Store{Store: ws, WAL: ws}, nil
	}
	return nil, fmt.Errorf("%w: -store %q is not mem, incremental or wal:DIR (the durable store is the log: spell a directory wal:DIR)", ErrUsage, spec)
}

// Close releases the store (the WAL's committers and file handles; the
// other kinds hold nothing).
func (s *Store) Close() error {
	if s.WAL != nil {
		return s.WAL.Close()
	}
	return nil
}

// PrintStats writes the store's end-of-run statistics line, if its kind
// keeps any.
func (s *Store) PrintStats(w io.Writer) {
	if s.Incremental != nil {
		st := s.Incremental.Stats()
		fmt.Fprintf(w, "incremental store: %dB full + %dB delta\n", st.FullBytes, st.DeltaBytes)
	}
	if s.WAL != nil {
		st := s.WAL.Stats()
		fmt.Fprintf(w, "wal store: %d save(s) in %d group commit(s), %d rotation(s), %d compaction(s), %d recovered, %dB torn tail truncated\n",
			st.Saves, st.Batches, st.Rotations, st.Compactions, st.Recovered, st.TruncatedBytes)
	}
}

// bufferedFile routes stream writes through a bufio buffer while letting
// StreamWriter.Close flush it and close the underlying file.
type bufferedFile struct {
	*bufio.Writer
	f *os.File
}

func (b bufferedFile) Close() error { return b.f.Close() }

// OpenEventStream creates path and returns the JSONL event stream an
// -events-out flag asks for: buffered so the hot path stays cheap,
// auto-flushed so a kill -9 still leaves a parseable prefix on disk. Close
// does the final flush, closes the file, and surfaces errors from every
// stage.
func OpenEventStream(path string) (*obs.StreamWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	stream := obs.NewStreamWriter(bufferedFile{bufio.NewWriterSize(f, 64<<10), f})
	stream.AutoFlush(200 * time.Millisecond)
	return stream, nil
}

// StartTelemetry starts agg's window ticker and, as asked, the exposition
// server on addr (-telemetry-addr; announced on stderr under the command's
// name) and the stderr dashboard (-dash). The returned stop closes the
// final partial window, stops the dashboard, keeps the endpoint up for
// linger so a scraper catches the final state, and closes the server,
// reporting a serve-goroutine death.
func StartTelemetry(name string, stderr io.Writer, agg *telemetry.Aggregator, addr string, dash bool, linger time.Duration) (stop func() error, err error) {
	stopTick := agg.Start()
	var srv *telemetry.Server
	if addr != "" {
		if srv, err = telemetry.NewServer(addr, agg); err != nil {
			stopTick()
			return nil, err
		}
		fmt.Fprintf(stderr, "%s: telemetry at %s/metrics\n", name, srv.URL())
	}
	stopDash := func() {}
	if dash {
		stopDash = telemetry.NewDashboard(agg, stderr).RunUntil()
	}
	return func() error {
		stopTick()
		agg.Tick()
		stopDash()
		if srv == nil {
			return nil
		}
		time.Sleep(linger)
		return srv.Close()
	}, nil
}

// StartProfiles begins the -cpuprofile capture (when cpuPath is set). The
// returned stop ends it and writes the -memprofile heap profile (when
// memPath is set) — at stop time, so the profile reflects the completed or
// failed run.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var memErr, cpuErr error
		if memPath != "" {
			runtime.GC()
			memErr = obs.WriteFile(memPath, pprof.WriteHeapProfile)
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			cpuErr = cpu.Close()
		}
		return errors.Join(memErr, cpuErr)
	}, nil
}
