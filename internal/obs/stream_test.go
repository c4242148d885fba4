package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

// TestStreamWriterTornPrefixParseable simulates a mid-run kill of a
// buffered stream: a tiny bufio buffer forces flushes to land mid-line, and
// the file is read WITHOUT closing the writer — exactly what a SIGKILL
// leaves behind. Every line but possibly the torn final one must parse.
func TestStreamWriterTornPrefixParseable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// 64 bytes is smaller than one encoded event, so the buffer spills
	// mid-line on nearly every event.
	bw := bufio.NewWriterSize(f, 64)
	s := NewStreamWriter(bw)
	s.Now = func() int64 { return 0 }
	for i := 0; i < 50; i++ {
		s.OnEvent(Event{Kind: KindCompute, Proc: i % 4, Label: "step-" + strconv.Itoa(i)})
	}
	// No Flush, no Close: read the kill artifact as-is.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("nothing reached disk before the simulated kill")
	}
	complete, torn := parseJSONLPrefix(t, data)
	if complete < 30 {
		t.Errorf("only %d complete events on disk of 50 written", complete)
	}
	if !torn {
		// With a 64-byte buffer the tail is almost certainly torn; if it
		// isn't, the prefix is simply fully parseable — also fine.
		t.Logf("tail happened to land on a line boundary (%d events)", complete)
	}
}

// TestStreamWriterAutoFlush: without an explicit Flush, a buffered stream
// becomes durable within the AutoFlush interval.
func TestStreamWriterAutoFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20) // too big to spill on its own
	s := NewStreamWriter(bw)
	stop := s.AutoFlush(5 * time.Millisecond)
	defer stop()
	s.OnEvent(Event{Kind: KindChkpt, Chkpt: ChkptRef{Index: 1}})

	deadline := time.Now().Add(2 * time.Second)
	for {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 {
			if n, _ := parseJSONLPrefix(t, data); n != 1 {
				t.Fatalf("flushed %d events, want 1", n)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("AutoFlush never flushed the buffered event")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamWriterClose covers the Close contract: final flush, underlying
// close, and error propagation from each stage.
func TestStreamWriterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	s := NewStreamWriter(flushCloser{Writer: bw, c: f})
	stop := s.AutoFlush(time.Hour) // never fires; Close must stop it
	_ = stop
	s.OnEvent(Event{Kind: KindHalt})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, torn := parseJSONLPrefix(t, data); n != 1 || torn {
		t.Errorf("after Close: %d events, torn=%v", n, torn)
	}
	// Close on an already-closed file must surface the close error.
	if err := s.Close(); err == nil {
		t.Error("second Close on closed file returned nil")
	}
}

// TestStreamWriterCloseReportsFlushError: a flush that cannot reach the
// writer must come back from Close even when every OnEvent "succeeded"
// into the buffer.
func TestStreamWriterCloseReportsFlushError(t *testing.T) {
	wantErr := errors.New("disk gone")
	fw := &failingFlushWriter{err: wantErr}
	s := NewStreamWriter(fw)
	s.OnEvent(Event{Kind: KindHalt})
	if err := s.Close(); !errors.Is(err, wantErr) {
		t.Errorf("Close = %v, want %v", err, wantErr)
	}
	// The failed flush poisoned the stream: a second Close reports it too.
	if err := s.Close(); !errors.Is(err, wantErr) {
		t.Errorf("second Close = %v, want %v", err, wantErr)
	}
}

// flushCloser buffers writes through bufio and closes the underlying file:
// the wiring CLI commands use for -events-out.
type flushCloser struct {
	*bufio.Writer
	c io.Closer
}

func (f flushCloser) Close() error { return f.c.Close() }

type failingFlushWriter struct{ err error }

func (f *failingFlushWriter) Write(p []byte) (int, error) { return len(p), nil }
func (f *failingFlushWriter) Flush() error                { return f.err }

// TestStreamWriterUnbufferedNoops: Flush/AutoFlush/Close on a plain writer
// are harmless no-ops (Close still reports stream errors).
func TestStreamWriterUnbufferedNoops(t *testing.T) {
	var buf bytes.Buffer
	s := NewStreamWriter(&buf)
	stop := s.AutoFlush(time.Millisecond)
	stop()
	s.OnEvent(Event{Kind: KindHalt})
	if err := s.Flush(); err != nil {
		t.Errorf("Flush: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if n, torn := parseJSONLPrefix(t, buf.Bytes()); n != 1 || torn {
		t.Errorf("%d events, torn=%v", n, torn)
	}
}

// parseJSONLPrefix parses data as JSONL tolerating a torn final line,
// failing the test on any malformed COMPLETE line. It returns the number
// of complete events and whether the tail was torn.
func parseJSONLPrefix(t *testing.T, data []byte) (complete int, torn bool) {
	t.Helper()
	lines := bytes.Split(data, []byte("\n"))
	for i, line := range lines {
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			if i == len(lines)-1 {
				return complete, true // torn tail: tolerated
			}
			t.Fatalf("malformed non-final line %d: %q: %v", i, line, err)
		}
		complete++
	}
	return complete, false
}
