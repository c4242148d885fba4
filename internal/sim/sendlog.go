package sim

import (
	"encoding/binary"
	"fmt"
	"math"
)

// A channel's sender-based log is one append-only byte log of a record per
// application message, its sequence number its position (DESIGN decision 30),
// or, on a channel no straight cut can have a message in flight on, no
// record at all.
// The first logInline bytes live in the channel, later ones in chunks that
// double from logChunkMin to logChunkMax bytes (a larger record gets one of
// its own). Nothing outside the log references a record's bytes.
const logInline, logChunkMin, logChunkMax = 40, 256, 4096

// logChunk is a run of consecutive records of a log.
type logChunk struct {
	first int    // sequence number of its first record
	b     []byte // the records; past len(b), the last chunk's capacity is room
}

// recordSize is len(appendRecord(nil, value, pb, arriveV)).
func recordSize(value int, pb []int, arriveV float64) int {
	var tmp [binary.MaxVarintLen64]byte
	size := binary.PutVarint(tmp[:], int64(value)) + binary.PutUvarint(tmp[:], uint64(len(pb))+1) + 1
	for _, x := range pb {
		size += binary.PutVarint(tmp[:], int64(x))
	}
	if math.Float64bits(arriveV) != 0 {
		size += 8
	}
	return size
}

// appendRecord appends a record: the value (zig-zag varint), the piggyback
// (uvarint 0 for nil, else its length + 1, then a varint per element) and
// ArriveV (a 0 byte for +0, else a 1 byte and its 8 IEEE-754 bytes, little
// endian).
func appendRecord(b []byte, value int, pb []int, arriveV float64) []byte {
	b = binary.AppendVarint(b, int64(value))
	if pb == nil {
		b = append(b, 0)
	} else {
		b = binary.AppendUvarint(b, uint64(len(pb))+1)
	}
	for _, x := range pb {
		b = binary.AppendVarint(b, int64(x))
	}
	if bits := math.Float64bits(arriveV); bits != 0 {
		return binary.LittleEndian.AppendUint64(append(b, 1), bits)
	}
	return append(b, 0)
}

// readRecord decodes the record at the head of b into m's Value, Piggyback
// (freshly allocated) and ArriveV. It returns the record's length, 0 when b
// ends inside it or it is malformed.
func readRecord(b []byte, m *Message) int {
	off, ok := 0, true
	uvarint := func() uint64 {
		x, k := binary.Uvarint(b[off:])
		ok, off = ok && k > 0, off+max(k, 0)
		return x
	}
	varint := func() int { x := uvarint(); return int(x>>1) ^ -int(x&1) }
	value, tag := varint(), uvarint()
	if !ok || tag > uint64(len(b)-off)+1 { // an element takes a byte at least
		return 0
	}
	var pb []int
	if tag > 0 {
		pb = make([]int, tag-1)
	}
	for i := range pb {
		pb[i] = varint()
	}
	arrive := 0.0
	if flag := uvarint(); ok && flag == 1 && off+8 <= len(b) {
		arrive, off = math.Float64frombits(binary.LittleEndian.Uint64(b[off:])), off+8
	} else if !ok || flag != 0 {
		return 0
	}
	m.Value, m.Piggyback, m.ArriveV = value, pb, arrive
	return off
}

// logNumber gives message seq its place in the log, with a record to come
// or, unlogged, with none.
func (ch *channel) logNumber(seq int, unlogged bool) {
	if seq != ch.logLen || seq > 0 && ch.unlogged != unlogged {
		panic(fmt.Sprintf("sim: channel %d->%d: message #%d (unlogged %v) after %d messages (unlogged %v)",
			ch.from, ch.to, seq, unlogged, ch.logLen, ch.unlogged))
	}
	ch.logLen++
	ch.unlogged = unlogged
}

// logAppend appends the record of application message m to the log.
func (ch *channel) logAppend(m *Message) {
	ch.logNumber(m.Seq, false)
	size := recordSize(m.Value, m.Piggyback, m.ArriveV)
	last := &ch.log[len(ch.log)-1]
	if cap(last.b)-len(last.b) < size { // a new chunk, in place of an empty one
		grow := max(logChunkMin, min(2*cap(last.b), logChunkMax), size)
		if len(last.b) > 0 {
			ch.log = append(ch.log, logChunk{})
			last = &ch.log[len(ch.log)-1]
		}
		*last = logChunk{first: m.Seq, b: make([]byte, 0, grow)}
	}
	last.b = appendRecord(last.b, m.Value, m.Piggyback, m.ArriveV)
}
