package sim

// Hooks is the protocol extension interface. The application-driven
// (coordination-free) scheme of the paper is the no-op implementation:
// checkpoint statements execute locally and nothing else happens. The
// baseline protocols in internal/protocol implement coordination on top of
// these hooks.
//
// All hooks run on the process's own goroutine.
type Hooks interface {
	// AtChkptStmt runs when the process reaches an application checkpoint
	// statement with straight-cut index idx. Returning true takes the
	// checkpoint with that index; returning false skips it (protocols that
	// checkpoint on their own schedule return false).
	AtChkptStmt(p *Proc, idx int) (take bool, err error)
	// BeforeSend returns the piggyback payload to attach to an outgoing
	// application message (communication-induced protocols use this).
	BeforeSend(p *Proc, to int) []int
	// BeforeDeliver runs after an application message is pulled off the
	// channel but BEFORE it is delivered (variable written, receive counted).
	// Communication-induced protocols take forced checkpoints here so the
	// checkpoint excludes the message — otherwise the message would be an
	// orphan of the induced cut.
	BeforeDeliver(p *Proc, m Message) error
	// OnMarker runs when an in-band marker is consumed on a channel.
	OnMarker(p *Proc, m Message) error
	// OnCtrl runs when an out-of-band control message is polled.
	OnCtrl(p *Proc, m Message) error
	// OnStep runs before each instruction (after control polling); SaS-like
	// coordinators use it to initiate rounds.
	OnStep(p *Proc) error
	// OnHalt runs when the process reaches the end of the program.
	OnHalt(p *Proc) error
}

// NoHooks is the application-driven protocol: every checkpoint statement
// is taken locally, with zero coordination — the paper's contribution.
type NoHooks struct{}

var _ Hooks = NoHooks{}

// AtChkptStmt implements Hooks: always take the local checkpoint.
func (NoHooks) AtChkptStmt(*Proc, int) (bool, error) { return true, nil }

// BeforeSend implements Hooks: no piggyback.
func (NoHooks) BeforeSend(*Proc, int) []int { return nil }

// BeforeDeliver implements Hooks.
func (NoHooks) BeforeDeliver(*Proc, Message) error { return nil }

// OnMarker implements Hooks: application-driven runs see no markers.
func (NoHooks) OnMarker(*Proc, Message) error { return nil }

// OnCtrl implements Hooks.
func (NoHooks) OnCtrl(*Proc, Message) error { return nil }

// OnStep implements Hooks.
func (NoHooks) OnStep(*Proc) error { return nil }

// OnHalt implements Hooks.
func (NoHooks) OnHalt(*Proc) error { return nil }

// HooksFactory builds one Hooks value per process; state one protocol
// shares across processes would be closed over in the factory.
type HooksFactory func(rank, nproc int) Hooks

// NoProtocol is the factory for the application-driven scheme.
func NoProtocol(int, int) Hooks { return NoHooks{} }
