package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// feed publishes a tiny two-process run with a message, a checkpoint, a
// block, and a recovery cycle.
func feed(o Observer) {
	o.OnEvent(Event{Kind: KindCompute, Proc: 0, Label: "x="})
	o.OnEvent(Event{Kind: KindSend, Proc: 0, VTime: 0.001, Msg: MsgRef{From: 0, To: 1, Seq: 0}})
	o.OnEvent(Event{Kind: KindRecv, Proc: 1, VTime: 0.002, Msg: MsgRef{From: 0, To: 1, Seq: 0}})
	o.OnEvent(Event{Kind: KindChkpt, Proc: 1, VTime: 0.003, Chkpt: ChkptRef{Index: 0, Instance: 0}, Label: "C_0"})
	o.OnEvent(Event{Kind: KindBlock, Proc: 0, VTime: 0.004, Tag: "ctrl", DurNS: 1500, VDur: 0.003})
	o.OnEvent(Event{Kind: KindRollback, Proc: -1, Label: "proc 1 failed"})
	o.OnEvent(Event{Kind: KindRestart, Proc: -1, Inc: 1})
	o.OnEvent(Event{Kind: KindHalt, Proc: 0, Inc: 1})
	o.OnEvent(Event{Kind: KindHalt, Proc: 1, Inc: 1})
}

func TestRecorderCanonicalOrder(t *testing.T) {
	r := NewRecorder()
	feed(r)
	events := r.Events()
	if len(events) != 9 {
		t.Fatalf("events = %d, want 9", len(events))
	}
	for i := 1; i < len(events); i++ {
		a, b := events[i-1], events[i]
		if a.Inc > b.Inc || (a.Inc == b.Inc && a.Proc > b.Proc) ||
			(a.Inc == b.Inc && a.Proc == b.Proc && a.Seq >= b.Seq) {
			t.Errorf("order violated at %d: %+v then %+v", i, a, b)
		}
	}
	// Per-(inc,proc) sequences start at 0 and are dense.
	if events[0].Proc != -1 || events[0].Seq != 0 {
		t.Errorf("first event = %+v, want runtime seq 0", events[0])
	}
}

func TestRecorderWallStamps(t *testing.T) {
	r := NewRecorder()
	r.OnEvent(Event{Kind: KindCompute, Proc: 0})
	time.Sleep(time.Millisecond)
	r.OnEvent(Event{Kind: KindCompute, Proc: 0})
	events := r.Events()
	if events[0].WallNS < 0 || events[1].WallNS <= events[0].WallNS {
		t.Errorf("wall stamps not increasing: %d then %d", events[0].WallNS, events[1].WallNS)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.OnEvent(Event{Kind: KindCompute, Proc: p})
			}
		}()
	}
	wg.Wait()
	events := r.Events()
	if len(events) != 2000 {
		t.Fatalf("events = %d", len(events))
	}
	// Each process's local history must be dense despite interleaving.
	next := map[int]int{}
	for _, e := range events {
		if e.Seq != next[e.Proc] {
			t.Fatalf("proc %d seq %d, want %d", e.Proc, e.Seq, next[e.Proc])
		}
		next[e.Proc]++
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.Now = func() int64 { return 0 }
	feed(r)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range r.Events() {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 9 {
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		if e.Kind == 0 {
			t.Errorf("line without kind: %q", line)
		}
		if strings.Contains(line, "wall_ns") {
			t.Errorf("zeroed wall clock still serialized: %q", line)
		}
	}
}

func TestStreamWriter(t *testing.T) {
	var buf bytes.Buffer
	s := NewStreamWriter(&buf)
	feed(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 9 {
		t.Fatalf("lines = %d", len(lines))
	}
	var first Event
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Kind != KindCompute {
		t.Errorf("stream not in arrival order: first = %+v", first)
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("empty Multi not nil")
	}
	a, b := NewRecorder(), NewRecorder()
	if Multi(a, nil) != Observer(a) {
		t.Error("single-observer Multi not unwrapped")
	}
	m := Multi(a, b)
	m.OnEvent(Event{Kind: KindCompute, Proc: 0})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Errorf("fan-out failed: %d, %d", len(a.Events()), len(b.Events()))
	}
}

// TestChromeTraceSchema validates the export against the trace-event
// contract Perfetto requires: a traceEvents array whose entries carry
// ph/ts/pid/tid, flow arrows in matched s/f pairs, and checkpoints as
// instant events.
func TestChromeTraceSchema(t *testing.T) {
	r := NewRecorder()
	r.Now = func() int64 { return 0 }
	feed(r)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	var flowsS, flowsF, instants int
	for _, ev := range doc.TraceEvents {
		for _, field := range []string{"ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event missing %q: %v", field, ev)
			}
		}
		switch ev["ph"] {
		case "s":
			flowsS++
		case "f":
			flowsF++
			if ev["bp"] != "e" {
				t.Errorf("flow finish without bp=e: %v", ev)
			}
		case "i":
			instants++
		case "X":
			if d, ok := ev["dur"].(float64); !ok || d <= 0 {
				t.Errorf("slice without positive dur: %v", ev)
			}
		}
	}
	if flowsS != 1 || flowsF != 1 {
		t.Errorf("flow events s=%d f=%d, want 1/1", flowsS, flowsF)
	}
	if instants < 3 { // chkpt + rollback + restart at least
		t.Errorf("instants = %d", instants)
	}
}

func TestWriteMetricsJSONL(t *testing.T) {
	var c metrics.Counters
	c.IncAppMessages(4)
	c.Inc("custom_thing", 2)
	c.ObserveHist("stall_v", 0.5)
	c.ObserveHist("stall_v", 1.5)
	stages := []StageTiming{{Name: "sim.run", Elapsed: 3 * time.Millisecond}}

	var buf bytes.Buffer
	meta := RunMeta{Program: "p", Protocol: "appl", Nproc: 4, Restarts: 1}
	if err := WriteMetricsJSONL(&buf, meta, c.Snapshot(), stages); err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		types[m["type"].(string)]++
		switch m["type"] {
		case "run":
			if m["program"] != "p" || m["nproc"] != float64(4) {
				t.Errorf("run line = %q", line)
			}
		case "counters":
			if m["app_messages"] != float64(4) {
				t.Errorf("counters line = %q", line)
			}
		case "histogram":
			if m["name"] == "stall_v" && m["count"] != float64(2) {
				t.Errorf("histogram line = %q", line)
			}
			// Every bound, and the counts up to the bucket of 1.5, the
			// last that holds an observation.
			bounds, counts := m["bounds"].([]any), m["counts"].([]any)
			if last := sort.SearchFloat64s(metrics.DefaultSketchBounds, 1.5); len(bounds) != 97 ||
				len(counts) != last+1 || counts[last] != float64(1) {
				t.Errorf("histogram line has %d bounds and counts %v, want 97 and counts ending at bucket %d", len(bounds), counts, last)
			}
		case "timer":
			if line != `{"type":"timer","name":"sim.run","count":1,"ns":3000000}` {
				t.Errorf("timer line = %q", line)
			}
		}
	}
	if types["run"] != 1 || types["counters"] != 1 || types["histogram"] != 1 || types["timer"] != 1 {
		t.Errorf("line types = %v", types)
	}
}

// TestCountersLineKeysFollowFixed: the "counters" line carries "type", then
// exactly metrics.Snapshot.Fixed()'s names in its order (zero or not), then
// "custom" — so a new fixed counter reaches the stream with no edit here.
func TestCountersLineKeysFollowFixed(t *testing.T) {
	var c metrics.Counters
	c.Inc("zz", 1)
	c.Inc("aa", 2)
	snap := c.Snapshot()
	var buf bytes.Buffer
	if err := WriteMetricsJSONL(&buf, RunMeta{}, snap, nil); err != nil {
		t.Fatal(err)
	}
	line := strings.Split(buf.String(), "\n")[1]
	want := `{"type":"counters"`
	for _, f := range snap.Fixed() {
		want += `,"` + f.Name + `":0`
	}
	want += `,"custom":{"aa":2,"zz":1}}`
	if line != want {
		t.Errorf("counters line = %s\nwant            %s", line, want)
	}
	// Byte-for-byte the line the stream has always carried.
	const legacy = `{"type":"counters","app_messages":0,"ctrl_messages":0,"ctrl_bytes":0,"checkpoints":0,` +
		`"forced":0,"rollbacks":0,"restarted_events":0,"blocked_ns":0,"custom":{"aa":2,"zz":1}}`
	if line != legacy {
		t.Errorf("counters line = %s\nlegacy          %s", line, legacy)
	}
}

// TestKindTable: every kind, and the "other" slot, has a unique non-empty
// name that survives a text round trip; whatever is not a kind is "other".
func TestKindTable(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < NumKinds; k++ {
		name := k.String()
		if prev, dup := seen[name]; dup || name == "" {
			t.Errorf("kind %d named %q (also kind %d)", k, name, prev)
		}
		seen[name] = k
		text, err := k.MarshalText()
		var back Kind
		if err != nil || back.UnmarshalText(text) != nil || back != k {
			t.Errorf("kind %d: text %q (%v) reads back as %d", k, text, err, back)
		}
	}
	if seen["other"] != 0 || NumKinds.String() != "other" || Kind(255).String() != "other" {
		t.Errorf("not-a-kind names: slot 0 %q, sentinel %q, 255 %q", Kind(0), NumKinds, Kind(255))
	}
	k := KindSend
	if err := k.UnmarshalText([]byte("mystery")); err != nil || k != 0 {
		t.Errorf("unknown name read as %d, %v; want the zero Kind", k, err)
	}
}

// TestEventWireFormat pins the JSONL line byte for byte — field order,
// which kinds carry msg and chkpt (zero-valued or not), omitted zeros, HTML
// escaping — to what the stream looked like while msg and chkpt were
// pointers and Kind a string.
func TestEventWireFormat(t *testing.T) {
	for _, tt := range []struct {
		e    Event
		want string
	}{
		{Event{Kind: KindChkpt, Proc: 1, Inc: 2, VTime: 0.003, Label: "C_<0>", Chkpt: ChkptRef{Index: 3, Instance: 1}, DurNS: 1500},
			`{"kind":"chkpt","proc":1,"inc":2,"seq":0,"vtime":0.003,"wall_ns":7,"label":"C_\u003c0\u003e","chkpt":{"index":3,"instance":1},"dur_ns":1500}`},
		{Event{Kind: KindSend, Msg: MsgRef{From: 0, To: 1, Seq: 4}},
			`{"kind":"send","proc":0,"inc":0,"seq":0,"wall_ns":7,"msg":{"from":0,"to":1,"seq":4}}`},
		{Event{Kind: KindRecv, Proc: 1},
			`{"kind":"recv","proc":1,"inc":0,"seq":0,"wall_ns":7,"msg":{"from":0,"to":0,"seq":0}}`},
		{Event{Kind: KindBlock, Tag: "ctrl", DurNS: 1500, VDur: 1e-7, Msg: MsgRef{To: 9}, Chkpt: ChkptRef{Index: 9}},
			`{"kind":"block","proc":0,"inc":0,"seq":0,"wall_ns":7,"tag":"ctrl","dur_ns":1500,"vdur":1e-7}`},
		{Event{Kind: KindBreaker, Proc: -1, Label: "closed->open"},
			`{"kind":"breaker","proc":-1,"inc":0,"seq":0,"wall_ns":7,"label":"closed-\u003eopen"}`},
	} {
		var buf bytes.Buffer
		s := NewStreamWriter(&buf)
		s.Now = func() int64 { return 7 }
		s.OnEvent(tt.e)
		if got, err := strings.TrimSuffix(buf.String(), "\n"), s.Close(); got != tt.want || err != nil {
			t.Errorf("line (err %v)\n got: %s\nwant: %s", err, got, tt.want)
		}
		var back Event
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil || back.Kind != tt.e.Kind || back.Label != tt.e.Label {
			t.Errorf("line does not read back: %v, %+v", err, back)
		}
	}
}
