// Package obs is the run observability layer: it turns executions of the
// sim runtime into durable, structured artifacts. The runtime publishes
// Events through the Observer interface (wired via sim.Config.Observer);
// this package provides the consumers:
//
//   - Recorder collects events in memory, in canonical order (Events), and
//     exports them as a Chrome trace-event file (WriteChromeTrace)
//     that opens directly in Perfetto (ui.perfetto.dev) or
//     chrome://tracing, with per-process timelines, checkpoints as instant
//     events, send→recv flow arrows, and rollback/restart markers.
//   - StreamWriter streams each event as one JSON line the moment it is
//     observed — a flight recorder that survives crashes of the run.
//   - WriteMetricsJSONL exports a run's counters, histograms, and timers
//     as a JSONL metrics stream.
//
// The package deliberately depends only on internal/metrics, never on the
// runtime, so any event producer can reuse it.
//
// # JSONL event schema
//
// Each line is one JSON object:
//
//	kind    string  event kind, by its name in kindNames (Kind.String)
//	proc    int     process rank; -1 for run-level events
//	inc     int     incarnation (0 until the first recovery)
//	seq     int     position in the (inc, proc) local history
//	vtime   float64 virtual time, seconds (when the run prices time)
//	wall_ns int64   wall-clock nanoseconds since the observer started
//	label   string  human-readable tag (statement, failure, recovery line)
//	tag     string  protocol tag for control traffic ("ctrl", marker tags)
//	msg     object  {"from","to","seq"} for send/recv
//	chkpt   object  {"index","instance"} for chkpt
//	dur_ns  int64   wall time blocked (block) or spent saving (chkpt)
//	vdur    float64 blocked virtual time for block events
//
// Zero-valued optional fields are omitted. Lines are ordered by
// (inc, proc, seq) in Recorder exports, which is deterministic for
// deterministic programs; StreamWriter emits arrival order.
package obs

import (
	"encoding/json"
	"slices"
)

// Kind is an event class: a small integer consumers index fixed arrays by,
// spelled in the exported streams by its kindNames row. Zero is not a kind.
type Kind uint8

// Event kinds. The first four mirror the trace package's local-history
// kinds; the rest are runtime lifecycle events that an in-memory trace
// never sees (they concern incarnations, not one local history).
const (
	KindCompute Kind = iota + 1
	KindSend
	KindRecv
	KindChkpt
	KindBlock
	KindRollback
	KindRestart
	KindHalt
	// Robustness kinds, from the chaos layer and the hardened runtime: fault
	// handling is as observable as the happy path.
	KindFault    // injected storage fault (Tag: fault class)
	KindRetry    // operation retried: storage (Tag: op) or transport retransmit (Tag: "retransmit")
	KindScrub    // scrub pass quarantined corrupt snapshots
	KindDegraded // recovery fell back below the best straight cut
	// Network-chaos kinds, from the link-level fault injector and the
	// hardened transport.
	KindNetFault // injected network fault (Tag: drop/dup/reorder/delay/partition)
	KindSuspect  // a transport link suspected the peer leaving its frames unacked
	KindBacklog  // a channel queue crossed the transport's backlog watermark
	KindHeal     // a directed partition window closed (first frame through)
	// Health kinds: the live telemetry aggregator (internal/telemetry)
	// publishes its detector verdicts back into the stream, so the flight
	// recorder captures WHEN the run went unhealthy, not just that it did.
	KindStall // no forward progress from a process for N aggregation windows
	KindStorm // rollback storm: repeated rollbacks within the detector's horizon
	KindLag   // checkpoint lag: virtual time since a process's last completed save crossed the threshold
	// Fleet kinds, from the fleet engine (internal/fleet), so one recorder
	// or telemetry aggregator sees the whole fleet's story. Fleet events
	// carry Proc = -1 (they concern jobs, not a job's processes) and the
	// job id in Inc where meaningful.
	KindAdmit   // job admitted (Tag: tenant)
	KindReject  // admission rejected (Tag: tenant, Label: reason)
	KindJobDone // admitted job reached a terminal bucket (Tag: bucket)
	KindBreaker // circuit breaker transition (Label: from->to)
	KindDrain   // drain lifecycle (Label: begin/park/done)

	NumKinds // one past the last kind: the length of an array indexed by Kind
)

// kindNames is the one place a kind is spelled: the JSONL "kind" field, the
// /snapshot.json keys and the Prometheus kind label all reach it through
// String. Slot 0 names whatever is not a kind: zero, a value past the table.
var kindNames = [NumKinds]string{
	0: "other", KindCompute: "compute", KindSend: "send", KindRecv: "recv",
	KindChkpt: "chkpt", KindBlock: "block", KindRollback: "rollback",
	KindRestart: "restart", KindHalt: "halt", KindFault: "fault",
	KindRetry: "retry", KindScrub: "scrub", KindDegraded: "degraded",
	KindNetFault: "netfault", KindSuspect: "suspect", KindBacklog: "backlog",
	KindHeal: "heal", KindStall: "stall", KindStorm: "storm", KindLag: "lag",
	KindAdmit: "admit", KindReject: "reject", KindJobDone: "jobdone",
	KindBreaker: "breaker", KindDrain: "drain",
}

// String returns the kind's exported name ("other" for what is not a kind).
func (k Kind) String() string {
	if k >= NumKinds {
		k = 0
	}
	return kindNames[k]
}

// MarshalText spells the kind by name in JSON and every other text codec.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText reads a name back. Like every consumer of kinds it is total
// against a newer producer: a name outside the table reads as zero.
func (k *Kind) UnmarshalText(text []byte) error {
	*k = Kind(max(0, slices.Index(kindNames[:], string(text))))
	return nil
}

// MsgRef identifies an application message (sender, receiver, per-channel
// sequence number).
type MsgRef struct {
	From int `json:"from"`
	To   int `json:"to"`
	Seq  int `json:"seq"`
}

// ChkptRef identifies a checkpoint: the straight-cut index C_i and the
// instance count for checkpoint statements inside loops.
type ChkptRef struct {
	Index    int `json:"index"`
	Instance int `json:"instance"`
}

// Event is one observed runtime event, a flat value a producer builds
// without allocating. Producers fill the semantic fields; Seq and WallNS
// are stamped by the consuming Recorder/StreamWriter so producers stay free
// of clock and ordering concerns. Msg means something on send and recv
// events only, Chkpt on chkpt events only, and only those export them.
type Event struct {
	Kind   Kind     `json:"kind"`
	Proc   int      `json:"proc"`
	Inc    int      `json:"inc"`
	Seq    int      `json:"seq"`
	VTime  float64  `json:"vtime,omitempty"`
	WallNS int64    `json:"wall_ns,omitempty"`
	Label  string   `json:"label,omitempty"`
	Tag    string   `json:"tag,omitempty"`
	Msg    MsgRef   `json:"msg"`
	Chkpt  ChkptRef `json:"chkpt"`
	DurNS  int64    `json:"dur_ns,omitempty"`
	VDur   float64  `json:"vdur,omitempty"`
}

// line is an Event as the schema above has it, msg and chkpt present exactly
// when Kind gives them meaning. The embedded copy supplies kind … tag; its
// last four fields are hidden by the outer ones, so that the two references,
// as omittable pointers into that copy, keep their place in the line.
type line struct {
	fields
	Msg   *MsgRef   `json:"msg,omitempty"`
	Chkpt *ChkptRef `json:"chkpt,omitempty"`
	DurNS int64     `json:"dur_ns,omitempty"`
	VDur  float64   `json:"vdur,omitempty"`
}

type fields Event // Event without MarshalJSON

func (l *line) set(e Event) {
	*l = line{fields: fields(e), DurNS: e.DurNS, VDur: e.VDur}
	switch e.Kind {
	case KindSend, KindRecv:
		l.Msg = &l.fields.Msg
	case KindChkpt:
		l.Chkpt = &l.fields.Chkpt
	}
}

// MarshalJSON writes the event as its line.
func (e Event) MarshalJSON() ([]byte, error) {
	var l line
	l.set(e)
	return json.Marshal(&l)
}

// Observer receives runtime events as they happen. Implementations must be
// safe for concurrent use: every process goroutine publishes through the
// same observer.
type Observer interface {
	OnEvent(Event)
}

// multi fans one event out to several observers.
type multi []Observer

func (m multi) OnEvent(e Event) {
	for _, o := range m {
		o.OnEvent(e)
	}
}

// Multi combines observers; nil entries are dropped. It returns nil when
// nothing remains, so callers can wire the result straight into a config
// field that treats nil as "observability off".
func Multi(obs ...Observer) Observer {
	var out multi
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}
