package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event format, the JSON dialect Perfetto (ui.perfetto.dev)
// and chrome://tracing ingest natively:
//
//	{"traceEvents": [{"name","ph","ts","pid","tid",...}, ...]}
//
// Phases used here: "M" metadata (process/thread names), "X" complete
// slices, "i" instant events, "s"/"f" flow arrows. Timestamps are
// microseconds. https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope: t(hread), p(rocess), g(lobal)
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// timebase selects how event timestamps map to trace microseconds, in
// preference order: virtual time when the run priced it (deterministic,
// matches the paper's cost model), wall time otherwise, and the local
// sequence number as a last resort so traces without any clock still lay
// out left-to-right.
func timebase(events []Event) func(Event) float64 {
	anyV, anyW := false, false
	for _, e := range events {
		anyV = anyV || e.VTime > 0
		anyW = anyW || e.WallNS > 0
	}
	switch {
	case anyV:
		return func(e Event) float64 { return e.VTime * 1e6 }
	case anyW:
		return func(e Event) float64 { return float64(e.WallNS) / 1e3 }
	default:
		return func(e Event) float64 { return float64(e.Seq) }
	}
}

// tid maps a process rank to a trace thread id; the run-level pseudo
// process (-1) gets track 0, ranks shift up by one.
func tid(proc int) int { return proc + 1 }

// WriteChromeTrace exports the recorded run in Chrome trace-event JSON.
// Each incarnation is one trace process ("pid"), each simulated process
// one thread: restarts therefore appear as separate process groups.
// Checkpoints render as instant events, application messages as flow
// arrows between the send and recv slices, block events as spans whose
// width is the stalled time, and rollback/restart as global instants.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := r.Events()
	ts := timebase(events)

	var out []chromeEvent
	// Metadata: name every (incarnation, rank) track that appears.
	seenPID := map[int]bool{}
	seenTID := map[[2]int]bool{}
	for _, e := range events {
		if !seenPID[e.Inc] {
			seenPID[e.Inc] = true
			out = append(out, chromeEvent{
				Name: "process_name", Ph: "M", PID: e.Inc,
				Args: map[string]any{"name": fmt.Sprintf("incarnation %d", e.Inc)},
			})
		}
		key := [2]int{e.Inc, e.Proc}
		if !seenTID[key] {
			seenTID[key] = true
			name := fmt.Sprintf("proc %d", e.Proc)
			if e.Proc < 0 {
				name = "runtime"
			}
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", PID: e.Inc, TID: tid(e.Proc),
				Args: map[string]any{"name": name},
			})
		}
	}

	const pointDur = 1.0 // µs width of point-like slices
	for _, e := range events {
		ev := chromeEvent{TS: ts(e), PID: e.Inc, TID: tid(e.Proc)}
		flow := ev // the arrow end that follows a send or recv slice
		args := map[string]any{"seq": e.Seq}
		if e.Label != "" {
			args["label"] = e.Label
		}
		switch e.Kind {
		case KindChkpt:
			ev.Ph, ev.S, ev.Cat = "i", "t", "chkpt"
			ev.Name = e.Label
			if ev.Name == "" {
				ev.Name = fmt.Sprintf("C_%d", e.Chkpt.Index)
			}
			args["index"], args["instance"] = e.Chkpt.Index, e.Chkpt.Instance
		case KindSend, KindRecv:
			ev.Ph, ev.Dur, ev.Cat = "X", pointDur, "msg"
			// One arrow per message and incarnation: a replayed message
			// after recovery is a fresh arrow.
			flow.ID = fmt.Sprintf("m%d.%d.%d.%d", e.Inc, e.Msg.From, e.Msg.To, e.Msg.Seq)
			flow.Name, flow.Cat = "msg", "msg"
			if e.Kind == KindSend {
				ev.Name, flow.Ph = fmt.Sprintf("send→%d", e.Msg.To), "s"
			} else {
				ev.Name, flow.Ph, flow.BP = fmt.Sprintf("recv←%d", e.Msg.From), "f", "e"
			}
		case KindBlock:
			ev.Ph, ev.Cat = "X", "block"
			ev.Name = "blocked"
			if e.Tag != "" {
				ev.Name = "blocked:" + e.Tag
			}
			switch {
			case e.VDur > 0:
				ev.Dur = e.VDur * 1e6
				ev.TS -= ev.Dur // VTime is stamped at unblock
			case e.DurNS > 0:
				ev.Dur = float64(e.DurNS) / 1e3
			default:
				ev.Dur = pointDur
			}
		case KindRollback, KindRestart:
			ev.Ph, ev.S, ev.Cat = "i", "g", "recovery"
			ev.Name = e.Kind.String()
		case KindHalt:
			ev.Ph, ev.S, ev.Cat = "i", "t", "lifecycle"
			ev.Name = "halt"
		default: // compute and future kinds: a plain slice
			ev.Ph, ev.Dur, ev.Cat = "X", pointDur, "compute"
			ev.Name = e.Label
			if ev.Name == "" {
				ev.Name = e.Kind.String()
			}
		}
		ev.Args = args
		out = append(out, ev)
		if flow.Ph != "" {
			out = append(out, flow)
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ms"})
}
