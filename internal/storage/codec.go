package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/vclock"
)

// The snapshot body is the format of every persistent store (.ckpt files,
// WAL put records, the incremental store's reconstruction checksum).
// AppendSnapshot is the only function that writes a Snapshot's fields to
// bytes and DecodeSnapshot the only one that reads them. Integrity framing
// (CRC, length) is the store's own; a DecodeSnapshot error means the body
// inside an intact frame is not a snapshot, which callers report as
// ErrCorrupt.
//
// Layout, version 2 (uv = unsigned LEB128 varint, sv = zig-zag varint,
// str = uv byte count + bytes, len = uv holding 0 for a nil slice or map and
// n+1 for one of n elements, so nil and empty both round-trip):
//
//	byte  version (2)
//	sv    Proc, CFGIndex, Instance
//	len   Clock      then uv per component
//	len   Vars       then (str name, sv value) per variable, names ascending
//	str   PC
//	sv    N
//	uv    entries    then (uv peer delta, sv sent, sv recvd) per Peers entry
//	len   Instances  then (sv index, sv count) per entry, indexes ascending
//	u64   VTime      IEEE-754 bits, big-endian
//	byte  0          the empty manifest run
//
// A peer delta is the peer less the previous entry's (0 for the first). Version 1, read only, had instead two dense rows (len,
// then sv per peer), sent and received: N is the wider's width.
//
// Older bodies of both versions may end in a manifest instead, a len then a
// str per name: the variables a pruned save kept. It is read and dropped.
// The compiler's sim.Code.Manifests owns that list, and a restart needs none:
// it zeroes every declared variable and overlays Vars.
//
// Names, indexes and peers ascend and every varint is minimal, so the bytes
// are a deterministic function of the snapshot (the incremental store's
// checksum depends on that) and exactly one manifest-free body decodes to
// any given one whose Peers are a Row and whose Instances are Counts.
const snapshotVersion = 2

// AppendSnapshot appends the body of s to dst and returns the extended
// slice. It allocates nothing when dst has room and s holds at most
// sortScratch variables. The body is three runs — head (version … Clock),
// variables, tail (PC … manifest run) — so that the incremental store,
// which keeps variables apart from the rest, can put a body together again
// around a reconstructed variable map.
func AppendSnapshot(dst []byte, s Snapshot) []byte {
	return appendTail(appendVars(appendHead(dst, s), s.Vars), s)
}

func appendHead(dst []byte, s Snapshot) []byte {
	dst = append(dst, snapshotVersion)
	dst = binary.AppendVarint(dst, int64(s.Proc))
	dst = binary.AppendVarint(dst, int64(s.CFGIndex))
	dst = binary.AppendVarint(dst, int64(s.Instance))

	dst = appendLen(dst, len(s.Clock), s.Clock == nil)
	for _, c := range s.Clock {
		dst = binary.AppendUvarint(dst, c)
	}
	return dst
}

func appendVars(dst []byte, vars map[string]int) []byte {
	dst = appendLen(dst, len(vars), vars == nil)
	var nameBuf [sortScratch]string
	names := nameBuf[:0]
	for name := range vars {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		dst = appendString(dst, name)
		dst = binary.AppendVarint(dst, int64(vars[name]))
	}
	return dst
}

func appendTail(dst []byte, s Snapshot) []byte {
	dst = appendString(dst, s.PC)
	dst = binary.AppendUvarint(binary.AppendVarint(dst, int64(s.N)), uint64(len(s.Peers)))
	prev := 0
	for _, e := range s.Peers {
		dst = binary.AppendUvarint(dst, uint64(e.Peer-prev))
		dst = binary.AppendVarint(binary.AppendVarint(dst, int64(e.Sent)), int64(e.Recvd))
		prev = e.Peer
	}

	dst = appendLen(dst, len(s.Instances), s.Instances == nil)
	for _, e := range s.Instances {
		dst = binary.AppendVarint(binary.AppendVarint(dst, int64(e.Index)), int64(e.N))
	}

	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.VTime))
	return append(dst, 0) // no manifest
}

// sortScratch is how many variable names AppendSnapshot sorts on its own stack.
const sortScratch = 32

func appendLen(dst []byte, n int, isNil bool) []byte {
	if isNil {
		return append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(n)+1)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeSnapshot inverts AppendSnapshot, and reads version 1 too. The result
// shares no memory with body, so the caller may reuse the buffer at once.
// Any body AppendSnapshot could not have produced — another version byte, a
// truncated or over-long body, a non-minimal varint, names, indexes or peers
// out of order, a peer not below N, an all-zero entry — is an error,
// and every declared length is checked against the bytes that remain before
// anything is allocated for it.
func DecodeSnapshot(body []byte) (Snapshot, error) {
	if len(body) == 0 || (body[0] != 1 && body[0] != snapshotVersion) {
		return Snapshot{}, errors.New("storage: snapshot body: unknown version")
	}
	// One copy backs every string of the result.
	d := decoder{text: string(body), rest: body[1:]}
	var s Snapshot
	s.Proc, s.CFGIndex, s.Instance = d.int(), d.int(), d.int()

	if n, ok := d.count(1); ok {
		s.Clock = make(vclock.VC, n)
		for i := range s.Clock {
			s.Clock[i] = d.uvarint()
		}
	}
	if n, ok := d.count(2); ok {
		s.Vars = make(map[string]int, n)
		prev := ""
		for i := 0; i < n && d.err == nil; i++ {
			name := d.str()
			if i > 0 && name <= prev {
				d.fail("variable names out of order")
			}
			s.Vars[name], prev = d.int(), name
		}
	}
	s.PC = d.str()
	s.N, s.Peers = d.row(body[0])
	if n, ok := d.count(2); ok {
		s.Instances = make(Counts, n)
		for i := range s.Instances {
			if s.Instances[i] = (Count{d.int(), d.int()}); i > 0 && s.Instances[i].Index <= s.Instances[i-1].Index {
				d.fail("instance indexes out of order")
			}
		}
	}
	if len(d.rest) < 8 {
		d.fail("truncated")
	} else {
		s.VTime = math.Float64frombits(binary.BigEndian.Uint64(d.rest))
		d.rest = d.rest[8:]
	}
	d.skipManifest()
	if d.err == nil && len(d.rest) != 0 {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.rest)))
	}
	if d.err != nil {
		return Snapshot{}, d.err
	}
	return s, nil
}

// decoder reads a body front to back. The first failure sticks: every later
// read returns zero values, so DecodeSnapshot checks err once at the end.
type decoder struct {
	text string // the whole body, for substrings
	rest []byte // the unread tail of it
	err  error
}

func (d *decoder) fail(why string) {
	if d.err == nil {
		d.err = errors.New("storage: snapshot body: " + why)
		d.rest = nil
	}
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.rest)
	if n <= 0 || (n > 1 && d.rest[n-1] == 0) {
		d.fail("bad varint")
		return 0
	}
	d.rest = d.rest[n:]
	return v
}

func (d *decoder) int() int {
	u := d.uvarint()
	return int(int64(u>>1) ^ -int64(u&1))
}

// count reads a nil-aware length whose elements occupy at least elemBytes
// each; ok is false for a nil slice or map, and after a failure.
func (d *decoder) count(elemBytes int) (n int, ok bool) {
	u := d.uvarint()
	if u == 0 {
		return 0, false
	}
	if u-1 > uint64(len(d.rest)/elemBytes) {
		d.fail("length exceeds body")
		return 0, false
	}
	return int(u - 1), true
}

func (d *decoder) str() string {
	n := d.strLen()
	off := len(d.text) - len(d.rest)
	d.rest = d.rest[n:]
	return d.text[off : off+n]
}

// skipManifest reads the manifest run an older body may carry and drops it.
func (d *decoder) skipManifest() {
	n, _ := d.count(1)
	for range n {
		d.str()
	}
}

// strLen reads a string's byte count, checked against what remains.
func (d *decoder) strLen() int {
	n := d.uvarint()
	if n > uint64(len(d.rest)) {
		d.fail("length exceeds body")
		return 0
	}
	return int(n)
}

// row reads N and the entries, of version 2 in one allocation.
func (d *decoder) row(version byte) (int, Row) {
	var row Row
	if version == 1 {
		for recvd := range 2 {
			n, _ := d.count(1)
			for p := range n {
				if p == len(row) {
					row = append(row, PeerSeq{Peer: p})
				}
				if v := d.int(); recvd == 1 {
					row[p].Recvd = v
				} else {
					row[p].Sent = v
				}
			}
		}
		n := len(row)
		if row = slices.DeleteFunc(row, func(e PeerSeq) bool { return e.Sent|e.Recvd == 0 }); len(row) == 0 {
			row = nil
		}
		return n, row
	}
	n, k := d.int(), d.uvarint()
	if k > uint64(len(d.rest)/3) {
		d.fail("length exceeds body")
	} else if k > 0 {
		row = make(Row, k)
	}
	prev := 0
	for i := range row {
		delta := d.uvarint()
		switch {
		case i > 0 && delta == 0:
			d.fail("peer repeated")
		case n <= prev || delta >= uint64(n-prev): // a delta that wraps is a peer below its predecessor
			d.fail("peer not below N")
		}
		prev += int(delta)
		row[i] = PeerSeq{Peer: prev, Sent: d.int(), Recvd: d.int()}
		if d.err == nil && row[i].Sent|row[i].Recvd == 0 {
			d.fail("all-zero peer entry")
		}
	}
	return n, row
}
