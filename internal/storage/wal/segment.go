package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/storage"
)

// Record framing. Every record in a segment is one frame:
//
//	magic  u32 BE  — frame marker, lets recovery resynchronize past damage
//	length u32 BE  — payload byte count
//	crc    u32 BE  — CRC32 (IEEE) over the payload
//	payload        — kind u8 | proc i32 BE | index i32 BE | instance i32 BE | body
//
// The key fields live inside the CRC-covered payload, so a record is either
// served whole and verified or not served at all: recovery can never
// attribute a damaged body to the wrong checkpoint. The body is the
// storage.AppendSnapshot encoding of the snapshot for puts, empty for
// tombstones, and a human-readable reason for quarantine markers.
const (
	frameMagic  = 0x57414C31 // "WAL1"
	frameHeader = 12         // magic + length + crc
	payloadHead = 13         // kind + 3 × i32 key
	maxPayload  = 1 << 28    // sanity bound on the length field
)

// Record kinds.
const (
	kindPut  = 1 // a snapshot
	kindTomb = 2 // a durable delete of one key
	kindMark = 3 // a quarantine marker: key is corrupt, body carries why
	// kindCorruptRegion is a scan-synthesized pseudo-kind for a damaged
	// byte range; it never appears on disk.
	kindCorruptRegion = 0xFF
)

// loc names one frame inside the segment chain. The zero loc, of size 0,
// is no frame: it is a quarantine mark, an index entry for a key whose
// record failed verification (the reason is in Store.corrupt).
type loc struct {
	seg  uint64
	off  int64
	size int // full frame size, header included
}

func (l loc) mark() bool { return l.size == 0 }

// beginFrame appends the header space and the kind and key of one frame to
// dst; the caller appends the body behind it and calls finishFrame.
func beginFrame(dst []byte, kind byte, k storage.Key) []byte {
	dst = append(dst, make([]byte, frameHeader)...)
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(k.Proc)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(k.CFGIndex)))
	return binary.BigEndian.AppendUint32(dst, uint32(int32(k.Instance)))
}

// finishFrame fills in the header of the frame begun at dst[start:] once
// its payload is complete.
func finishFrame(dst []byte, start int) []byte {
	payload := dst[start+frameHeader:]
	binary.BigEndian.PutUint32(dst[start:], frameMagic)
	binary.BigEndian.PutUint32(dst[start+4:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+8:], crc32.ChecksumIEEE(payload))
	return dst
}

// appendFrame appends one complete frame for (kind, key, body) to dst.
func appendFrame(dst []byte, kind byte, k storage.Key, body []byte) []byte {
	start := len(dst)
	return finishFrame(append(beginFrame(dst, kind, k), body...), start)
}

// parsePayload splits a CRC-verified payload into its parts.
func parsePayload(payload []byte) (kind byte, k storage.Key, body []byte, ok bool) {
	if len(payload) < payloadHead {
		return 0, storage.Key{}, nil, false
	}
	kind = payload[0]
	if kind != kindPut && kind != kindTomb && kind != kindMark {
		return 0, storage.Key{}, nil, false
	}
	k = storage.Key{
		Proc:     int(int32(binary.BigEndian.Uint32(payload[1:]))),
		CFGIndex: int(int32(binary.BigEndian.Uint32(payload[5:]))),
		Instance: int(int32(binary.BigEndian.Uint32(payload[9:]))),
	}
	return kind, k, payload[payloadHead:], true
}

// decodeSnapshot unmarshals a put body, cross-checking the embedded key
// against the frame key so an index bug can never alias snapshots.
func decodeSnapshot(k storage.Key, body []byte) (storage.Snapshot, error) {
	s, err := storage.DecodeSnapshot(body)
	if err != nil {
		return storage.Snapshot{}, fmt.Errorf("%w: %s: undecodable body: %v", storage.ErrCorrupt, k, err)
	}
	if s.Key() != k {
		return storage.Snapshot{}, fmt.Errorf("%w: %s: body names %d/%d/%d", storage.ErrCorrupt,
			k, s.Proc, s.CFGIndex, s.Instance)
	}
	return s, nil
}

// recEvent is one scan observation: a valid record, or a damaged region.
type recEvent struct {
	off    int64
	size   int
	kind   byte // kindPut / kindTomb / kindMark / kindCorruptRegion
	key    storage.Key
	keyOK  bool   // corrupt regions: the header still named a plausible key
	reason string // corrupt regions and markers: why
}

// parseRecordAt fully validates the frame at off: magic, sane length,
// complete bytes, CRC, and payload shape.
func parseRecordAt(data []byte, off int) (recEvent, int, bool) {
	if off+frameHeader > len(data) {
		return recEvent{}, 0, false
	}
	if binary.BigEndian.Uint32(data[off:]) != frameMagic {
		return recEvent{}, 0, false
	}
	length := int(binary.BigEndian.Uint32(data[off+4:]))
	if length < payloadHead || length > maxPayload || off+frameHeader+length > len(data) {
		return recEvent{}, 0, false
	}
	payload := data[off+frameHeader : off+frameHeader+length]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[off+8:]) {
		return recEvent{}, 0, false
	}
	kind, key, body, ok := parsePayload(payload)
	if !ok {
		return recEvent{}, 0, false
	}
	ev := recEvent{off: int64(off), size: frameHeader + length, kind: kind, key: key, keyOK: true}
	if kind == kindMark {
		ev.reason = string(body)
	}
	return ev, frameHeader + length, true
}

// resync scans forward for the next offset holding a fully valid record.
func resync(data []byte, from int) int {
	for i := from; i+frameHeader <= len(data); i++ {
		if binary.BigEndian.Uint32(data[i:]) != frameMagic {
			continue
		}
		if _, _, ok := parseRecordAt(data, i); ok {
			return i
		}
	}
	return -1
}

// incompleteFrameAt reports whether the bytes at off look like a frame cut
// short by a crash (a torn tail) rather than a complete-but-damaged one:
// the header itself is truncated, or the stored length runs past EOF.
// Bit rot preserves the byte count; torn writes do not — this is what lets
// recovery truncate unacknowledged torn tails while quarantining (never
// silently dropping) complete records that fail their CRC.
func incompleteFrameAt(data []byte, off int) bool {
	if off+frameHeader > len(data) {
		return true
	}
	if binary.BigEndian.Uint32(data[off:]) != frameMagic {
		return false
	}
	length := int(binary.BigEndian.Uint32(data[off+4:]))
	if length > maxPayload {
		return false // length field itself is rot, not a cut
	}
	return off+frameHeader+length > len(data)
}

// corruptEvent describes the damaged region [start, end). When the frame
// header at start still parses, the event carries the key it named so the
// quarantine can be attributed; otherwise the region is anonymous.
func corruptEvent(data []byte, start, end int) recEvent {
	ev := recEvent{off: int64(start), size: end - start, kind: kindCorruptRegion, reason: "unrecognizable bytes"}
	if start+frameHeader+payloadHead <= len(data) && binary.BigEndian.Uint32(data[start:]) == frameMagic {
		length := int(binary.BigEndian.Uint32(data[start+4:]))
		if length >= payloadHead && length <= maxPayload {
			if _, key, _, ok := parsePayload(data[start+frameHeader : min(start+frameHeader+length, len(data))]); ok {
				ev.key, ev.keyOK, ev.reason = key, true, "crc mismatch"
			}
		}
	}
	return ev
}

// scanSegment walks one segment's bytes, yielding valid records and
// damaged regions in log order. tornStart >= 0 reports a trailing
// INCOMPLETE frame (a torn tail): the caller truncates it when the segment
// is the log's active tail, and quarantines it otherwise (a sealed
// segment was fsynced whole, so a short tail there is real damage, not an
// interrupted append).
func scanSegment(data []byte) (events []recEvent, tornStart int64) {
	off := 0
	for off < len(data) {
		if ev, n, ok := parseRecordAt(data, off); ok {
			events = append(events, ev)
			off += n
			continue
		}
		next := resync(data, off+1)
		if next < 0 {
			if incompleteFrameAt(data, off) {
				return events, int64(off)
			}
			events = append(events, corruptEvent(data, off, len(data)))
			return events, -1
		}
		events = append(events, corruptEvent(data, off, next))
		off = next
	}
	return events, -1
}
