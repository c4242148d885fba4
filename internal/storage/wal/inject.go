package wal

// Deterministic crash-point injection seam. The store consults its
// Injector (when configured) immediately before and after every durability
// side effect: appends, fsyncs, directory syncs, segment creation,
// manifest writes, manifest renames, and segment retirement. The injector
// answers with a Fault that can tear the pending bytes, flip a byte that
// was already acknowledged durable, or kill the store before or after the
// effect lands — which is how the walchaos soak drives the log through
// every crash window without forking processes.
//
// Consults happen under the store's mutex, so a deterministic injector
// (internal/chaos.WALInjector) sees one well-ordered stream of decisions
// regardless of goroutine scheduling.

// Op identifies the durability side effect being attempted.
type Op int

const (
	// OpAppend: a group-committed batch is about to be written to the
	// active segment. size is the batch byte count; Keep tears the write
	// after Keep bytes.
	OpAppend Op = iota
	// OpSync: fsync of the active segment after an append.
	OpSync
	// OpDirSync: fsync of the log directory after create/rename/retire.
	OpDirSync
	// OpSegCreate: a fresh active segment file is about to be created.
	OpSegCreate
	// OpManifestWrite: the temp manifest is about to be written+fsynced.
	OpManifestWrite
	// OpManifestRename: the temp manifest is about to be renamed over the
	// live one — the commit point of rotation/compaction.
	OpManifestRename
	// OpRetire: obsolete segment files are about to be deleted after a
	// successful compaction.
	OpRetire
)

var opNames = map[Op]string{
	OpAppend:         "append",
	OpSync:           "sync",
	OpDirSync:        "dirsync",
	OpSegCreate:      "segcreate",
	OpManifestWrite:  "manifestwrite",
	OpManifestRename: "manifestrename",
	OpRetire:         "retire",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return "op?"
}

// Kill says when, relative to the side effect, the simulated crash fires.
type Kill int

const (
	KillNone   Kill = iota
	KillBefore      // crash before the effect: none of its bytes land
	KillAfter       // crash after the effect: bytes landed, ack never sent
)

// Fault is the injector's decision for one consult. The zero value is
// "no fault".
type Fault struct {
	Kill Kill
	// Keep (OpAppend + KillBefore/KillAfter only): how many bytes of the
	// batch land anyway — a torn write. Unsynced bytes beyond the last
	// fsync are additionally discarded by the kill damage model.
	Keep int
	// Flip (OpAppend only): flip one byte of the batch at offset FlipAt
	// before it is written — silent media corruption of a record that
	// will still be acknowledged.
	Flip   bool
	FlipAt int
}

// Injector decides faults. seq is the store's monotone consult counter;
// size is the byte count at stake (0 when not meaningful for the op).
type Injector interface {
	Decide(op Op, seq uint64, size int) Fault
}
