package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/vclock"
)

var (
	goldenFull = Snapshot{
		Proc: 1, CFGIndex: 2, Instance: 3,
		Clock:     vclock.VC{4, 9, 0},
		Vars:      map[string]int{"x": 7, "iter": 2, "y": -1},
		PC:        "s12",
		N:         3,
		Peers:     Row{{0, 1, 0}, {2, 2, 1}},
		Instances: Counts{{1, 4}, {2, 3}},
		VTime:     1.25,
	}
	goldenPruned = Snapshot{
		Proc: 0, CFGIndex: 2, Instance: 4,
		Clock:     vclock.VC{4, 9, 0},
		Vars:      map[string]int{"iter": 2, "x": 7},
		PC:        "s12",
		N:         3,
		Peers:     Row{{0, 1, 0}, {2, 2, 1}},
		Instances: Counts{{1, 4}, {2, 3}},
		VTime:     1.25,
	}
)

// manifestCarrying is goldenPruned as the encoder wrote it while a pruned
// save named its live variables: version 2, ending in the manifest run
// (iter, x) where the encoder now writes a single 0.
const manifestCarrying = "02000408040409000304697465720401780e03733132060200020002040203020804063ff40000000000000304697465720178"

// The snapshot body is a persistent format: its bytes are pinned, so a
// change to them is a decision (a new version byte), not an accident. The
// older bodies of the same snapshots, which no encoder writes any more,
// still decode to them and re-encode to their bytes: version 1's, and the
// version 2 body a pruned save wrote while it carried its manifest, which
// the decoder drops.
func TestEncodeSnapshotGolden(t *testing.T) {
	tests := []struct {
		name  string
		snap  Snapshot
		want  string
		older []string
	}{
		{"full", goldenFull,
			"02020406040409000404697465720401780e01790103733132060200020002040203020804063ff400000000000000",
			[]string{"01020406040409000404697465720401780e01790103733132040200040400000203020804063ff400000000000000"}},
		{"pruned", goldenPruned,
			"02000408040409000304697465720401780e03733132060200020002040203020804063ff400000000000000",
			[]string{"01000408040409000304697465720401780e03733132040200040400000203020804063ff40000000000000304697465720178", manifestCarrying}},
	}
	for _, tt := range tests {
		body := AppendSnapshot(nil, tt.snap)
		if got := hex.EncodeToString(body); got != tt.want {
			t.Errorf("%s: body =\n%s\nwant\n%s", tt.name, got, tt.want)
		}
		back, err := DecodeSnapshot(body)
		if err != nil || !reflect.DeepEqual(back, tt.snap) {
			t.Errorf("%s: round trip = %+v, %v", tt.name, back, err)
		}
		for _, h := range tt.older {
			old, _ := hex.DecodeString(h)
			back, err := DecodeSnapshot(old)
			if err != nil || !reflect.DeepEqual(back, tt.snap) {
				t.Errorf("%s: version %d body %s decodes to %+v, %v", tt.name, old[0], h, back, err)
			} else if again := hex.EncodeToString(AppendSnapshot(nil, back)); again != tt.want {
				t.Errorf("%s: version %d body %s re-encodes to %s", tt.name, old[0], h, again)
			}
		}
	}
}

// version1Bodies are bodies the encoder wrote before version 2: the shape
// the runtime saves, with a clock as it saved it while it kept vector clocks,
// and without one as it saved it since.
var version1Bodies = map[string]string{
	"clock-free": "0104020a000304697465720a017850013405000c000c05000c000a02020c000000000000000000",
	"clocked":    "0104020a051f2834260304697465720a017850013405000c000c05000c000a02020c000000000000000000",
}

// A version 1 body reads as its version 2 re-encoding does: the dense rows
// become the entries of the peers with a count, and their width N. Version 2
// itself refuses every body a second encoding of the same snapshot could be —
// a peer not below N, one repeated or out of order, an all-zero entry — so
// the one body per snapshot that the encoder writes is the only one.
func TestVersion1BodiesReadAsVersion2(t *testing.T) {
	for name, h := range version1Bodies {
		v1, _ := hex.DecodeString(h)
		s, err := DecodeSnapshot(v1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := (Row{{1, 6, 6}, {3, 6, 5}}); s.N != 4 || !reflect.DeepEqual(s.Peers, want) {
			t.Errorf("%s: N %d, peers %v; want 4, %v", name, s.N, s.Peers, want)
		}
		v2 := AppendSnapshot(nil, s)
		if back, err := DecodeSnapshot(v2); v2[0] != snapshotVersion || err != nil || !reflect.DeepEqual(back, s) {
			t.Errorf("%s: version %d re-encoding decodes to %+v, %v; want %+v", name, v2[0], back, err, s)
		}
	}

	// rowBody is the version 2 body of key 0/0/0 with nothing but N and
	// entries, each (peer delta, sent, recvd), written as given.
	rowBody := func(n int64, entries ...[3]int64) []byte {
		body := []byte{snapshotVersion, 0, 0, 0, 0, 0, 0} // key, nil clock, nil vars, empty PC
		body = binary.AppendVarint(body, n)
		body = binary.AppendUvarint(body, uint64(len(entries)))
		for _, e := range entries {
			body = binary.AppendUvarint(body, uint64(e[0]))
			body = binary.AppendVarint(binary.AppendVarint(body, e[1]), e[2])
		}
		return append(body, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) // nil instances, VTime 0, nil manifest
	}
	if s, err := DecodeSnapshot(rowBody(4, [3]int64{0, 1, 0}, [3]int64{3, 0, 2})); err != nil || s.N != 4 || !reflect.DeepEqual(s.Peers, Row{{0, 1, 0}, {3, 0, 2}}) {
		t.Fatalf("a well-formed row decodes to N %d, peers %v, %v", s.N, s.Peers, err)
	}
	for name, body := range map[string][]byte{
		"peer not below N":      rowBody(4, [3]int64{4, 1, 0}),
		"peer in a zero-N body": rowBody(0, [3]int64{0, 1, 0}),
		"repeated peer":         rowBody(4, [3]int64{1, 1, 0}, [3]int64{0, 1, 0}),
		"peer out of order":     rowBody(4, [3]int64{3, 1, 0}, [3]int64{-2, 1, 0}),
		"all-zero entry":        rowBody(4, [3]int64{1, 0, 0}),
		"out of order, encoded": AppendSnapshot(nil, Snapshot{N: 4, Peers: Row{{3, 1, 0}, {1, 1, 0}}}),
		"peer of a negative N":  rowBody(-1, [3]int64{0, 1, 0}),
	} {
		if got, err := DecodeSnapshot(body); err == nil || !reflect.DeepEqual(got, Snapshot{}) {
			t.Errorf("%s: decoded %+v, %v", name, got, err)
		}
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	many := make(map[string]int, 200)
	manyInst := make(Counts, 200)
	for i := 0; i < 200; i++ {
		many[fmt.Sprintf("v%03d", i)] = i * i
		manyInst[i] = Count{i - 100, i}
	}
	tests := []struct {
		name string
		snap Snapshot
	}{
		{"zero value: every slice and map nil", Snapshot{}},
		{"every slice and map empty, 0-width clock", Snapshot{
			Clock: vclock.VC{}, Vars: map[string]int{}, Instances: Counts{},
		}},
		{"two peers of 1024", Snapshot{N: 1024, Peers: Row{{Peer: 511, Sent: 3, Recvd: 3}, {Peer: 1023, Sent: 1}}}},
		{"nil Vars beside a clock", Snapshot{Clock: vclock.VC{1}}},
		{"negative values", Snapshot{
			Proc: -1, CFGIndex: -2, Instance: -3,
			Vars: map[string]int{"a": math.MinInt64, "b": -1, "c": math.MaxInt64},
			N:    1, Peers: Row{{Peer: 0, Sent: -5, Recvd: math.MinInt64}},
			Instances: Counts{{-7, -8}, {0, 0}, {7, 8}},
			VTime:     -0.5,
		}},
		{"more than 127 variables and instances", Snapshot{
			Proc: 1 << 40, Clock: vclock.VC{math.MaxUint64, 0, 1 << 63},
			Vars: many, Instances: manyInst, PC: "s300",
		}},
		{"names that are not identifiers", Snapshot{
			Vars: map[string]int{"": 1, "reduce$tmp": 2, "\x00\xff": 3}, PC: "é",
		}},
		{"full", goldenFull},
		{"pruned", goldenPruned},
	}
	for _, tt := range tests {
		body := AppendSnapshot(nil, tt.snap)
		back, err := DecodeSnapshot(body)
		if err != nil || !reflect.DeepEqual(back, tt.snap) {
			t.Errorf("%s: round trip = %+v, %v\nwant %+v", tt.name, back, err, tt.snap)
			continue
		}
		// The decoded snapshot shares no memory with the body it came from:
		// stores reuse their read buffers.
		again := append([]byte(nil), body...)
		for i := range body {
			body[i] = 0xAA
		}
		if !reflect.DeepEqual(back, tt.snap) {
			t.Errorf("%s: scribbling over the body changed the decoded snapshot: %+v", tt.name, back)
		}
		// Map iteration order must not reach the bytes.
		for i := 0; i < 8; i++ {
			if !bytes.Equal(AppendSnapshot(nil, tt.snap), again) {
				t.Fatalf("%s: encoding is not deterministic", tt.name)
			}
		}
		if !bytes.Equal(AppendSnapshot([]byte("prefix"), tt.snap)[6:], again) {
			t.Errorf("%s: AppendSnapshot after a prefix differs from EncodeSnapshot", tt.name)
		}
	}
}

// Every proper prefix of a body, a body with bytes after it, and a body of
// another version fail to decode: an error and a zero Snapshot, never a
// panic or a half-filled one. That holds for a body that carries a manifest
// too, cut inside its manifest run or before it.
func TestDecodeSnapshotRejectsDamage(t *testing.T) {
	carrying, _ := hex.DecodeString(manifestCarrying)
	for i, body := range [][]byte{AppendSnapshot(nil, goldenFull), AppendSnapshot(nil, goldenPruned), AppendSnapshot(nil, Snapshot{}), carrying} {
		for cut := 0; cut < len(body); cut++ {
			if got, err := DecodeSnapshot(body[:cut]); err == nil || !reflect.DeepEqual(got, Snapshot{}) {
				t.Fatalf("body %d truncated to %d of %d bytes decoded: %+v, %v", i, cut, len(body), got, err)
			}
		}
		if got, err := DecodeSnapshot(append(body[:len(body):len(body)], 0)); err == nil || !reflect.DeepEqual(got, Snapshot{}) {
			t.Errorf("body %d with a trailing byte decoded: %+v, %v", i, got, err)
		}
		for _, version := range []byte{0, snapshotVersion + 1, '{'} {
			bad := append([]byte{version}, body[1:]...)
			if got, err := DecodeSnapshot(bad); err == nil || !reflect.DeepEqual(got, Snapshot{}) {
				t.Errorf("body %d with version byte %#x decoded: %+v, %v", i, version, got, err)
			}
		}
	}
	if _, err := DecodeSnapshot([]byte(`{"proc":1,"cfgIndex":2,"instance":3}`)); err == nil {
		t.Error("DecodeSnapshot accepted a JSON body")
	}
	// One body per snapshot: what AppendSnapshot would not write is refused.
	head := []byte{snapshotVersion, 0, 0, 0, 0} // key 0/0/0, nil clock
	for name, tail := range map[string][]byte{
		"non-minimal varint":  {0x80, 0x00},
		"names out of order":  {3, 1, 'b', 0, 1, 'a', 0},
		"duplicate name":      {3, 1, 'a', 0, 1, 'a', 0},
		"length beyond body":  {0xff, 0xff, 0xff, 0xff, 0x0f},
		"varint overflows 64": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	} {
		if _, err := DecodeSnapshot(append(head[:len(head):len(head)], tail...)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	for name, c := range map[string]Counts{
		"instance index repeated":   {{1, 1}, {1, 2}},
		"instance index descending": {{2, 1}, {1, 1}},
	} {
		if got, err := DecodeSnapshot(AppendSnapshot(nil, Snapshot{Instances: c})); err == nil || !reflect.DeepEqual(got, Snapshot{}) {
			t.Errorf("%s: decoded to %+v, %v", name, got, err)
		}
	}
}

// A declared length is checked against the bytes that remain before
// anything is allocated for it.
func TestDecodeSnapshotBoundsAllocation(t *testing.T) {
	head := []byte{snapshotVersion, 0, 0, 0}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01} // 2^48-ish elements
	bodies := [][]byte{
		append(head[:4:4], huge...),                                                   // clock
		append(append(head[:4:4], 0), huge...),                                        // vars
		append(append(head[:4:4], 0, 0), huge...),                                     // pc
		append(append(head[:4:4], 0, 0, 0), huge...),                                  // N
		append(append(head[:4:4], 0, 0, 0, 4), huge...),                               // peer entries
		append(append(head[:4:4], 0, 0, 0, 0, 0), huge...),                            // instances
		append(append(head[:4:4], 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), huge...), // manifest
	}
	for i, body := range bodies {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeSnapshot(body)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("body %d: decoded", i)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4096 {
			t.Errorf("body %d (%d bytes): decode allocated %d bytes", i, len(body), got)
		}
	}
	// An entry count the body can hold: one slice of that many, and no
	// more, is made before the repeated index 0 refuses the body.
	body := append(append(head[:4:4], 0, 0, 0, 0, 0), binary.AppendUvarint(nil, 1<<15+1)...)
	body = append(body, make([]byte, 1<<16)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeSnapshot(body)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("a body of 2^15 repeated instance entries decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 10*uint64(len(body)) {
		t.Errorf("a body of 2^15 instance entries (%d bytes): decode allocated %d bytes", len(body), got)
	}
}

func TestAppendSnapshotIntoReusedBufferDoesNotAllocate(t *testing.T) {
	for _, snap := range []Snapshot{goldenFull, goldenPruned} {
		buf := make([]byte, 0, 512)
		if n := testing.AllocsPerRun(100, func() { buf = AppendSnapshot(buf[:0], snap) }); n != 0 {
			t.Errorf("%v: AppendSnapshot into a reused buffer = %v allocs/op, want 0", snap.Key(), n)
		}
	}
}

// fuzzSnapshot builds a snapshot from fuzz inputs: blob feeds every number,
// names every string, and shape's bits 1 to 16 decide which slices and maps
// are nil; its other bits are unused.
func fuzzSnapshot(blob []byte, names string, shape uint8, vtime float64) Snapshot {
	next := func() int {
		if len(blob) == 0 {
			return 0
		}
		v := int(int8(blob[0]))
		blob = blob[1:]
		return v * v * v * 1021
	}
	name := func() string {
		n := min(len(names), 1+len(names)/3)
		s := names[:n]
		names = names[n:]
		return s
	}
	s := Snapshot{Proc: next(), CFGIndex: next(), Instance: next(), PC: name(), VTime: vtime}
	n := len(blob) % 5
	if shape&1 != 0 {
		s.Clock = make(vclock.VC, n)
		for i := range s.Clock {
			s.Clock[i] = uint64(next())
		}
	}
	if shape&2 != 0 {
		s.Vars = make(map[string]int, n)
		for i := 0; i < n; i++ {
			s.Vars[name()] = next()
		}
	}
	if shape&4 != 0 {
		s.N = n
	}
	if shape&8 != 0 {
		for p := range s.N {
			if e := (PeerSeq{p, next(), next()}); e.Sent != 0 || e.Recvd != 0 {
				s.Peers = append(s.Peers, e)
			}
		}
	}
	if shape&16 != 0 {
		s.Instances = make(Counts, 0, n)
		for i := 0; i < n; i++ {
			// A repeated index keeps its last count, as the map this was did.
			c := Count{next(), next()}
			if j, ok := s.Instances.Search(c.Index); ok {
				s.Instances[j] = c
			} else {
				s.Instances = slices.Insert(s.Instances, j, c)
			}
		}
	}
	return s
}

// sameSnapshot is reflect.DeepEqual but for VTime, which it compares by
// its bits: a body can carry a NaN, and the codec keeps it bit for bit.
func sameSnapshot(a, b Snapshot) bool {
	if math.Float64bits(a.VTime) != math.Float64bits(b.VTime) {
		return false
	}
	a.VTime, b.VTime = 0, 0
	return reflect.DeepEqual(a, b)
}

// FuzzSnapshotCodec holds the codec to its three promises on any input:
// decode(encode(s)) == s for any snapshot; decoding arbitrary bytes never
// panics and never allocates more than a constant factor of the body's
// length; and a body that decodes is the one body its snapshot encodes to
// but for the manifest run an older encoder wrote — or, of version 1, one
// that decodes as its version 2 re-encoding does.
// Run with `go test -fuzz FuzzSnapshotCodec ./internal/storage`; the
// committed corpus under testdata/fuzz runs under plain `go test`.
func FuzzSnapshotCodec(f *testing.F) {
	f.Add(AppendSnapshot(nil, goldenFull), "xiterys12", uint8(0xff), 1.25)
	f.Add(AppendSnapshot(nil, goldenPruned), "", uint8(0), 0.0)
	carrying, _ := hex.DecodeString(manifestCarrying)
	f.Add(carrying, "iterx", uint8(2), 0.0)
	f.Add(AppendSnapshot(nil, Snapshot{}), "a", uint8(2), math.Inf(-1))
	f.Add([]byte(`{"proc":1,"cfgIndex":2,"instance":3}`), "reduce$tmp", uint8(0x2a), -0.0)
	f.Add([]byte{snapshotVersion, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}, "names", uint8(0x15), 1e300)
	// A body as the runtime saves it, its row sparse, and the same
	// checkpoint in version 1, with and without the clock it once carried.
	f.Add(AppendSnapshot(nil, Snapshot{
		Proc: 2, CFGIndex: 1, Instance: 5, Vars: map[string]int{"x": 40, "iter": 5}, PC: "4",
		N: 4, Peers: Row{{1, 6, 6}, {3, 6, 5}}, Instances: Counts{{1, 6}},
	}), "iterx", uint8(0x31), 0.0)
	for _, h := range []string{version1Bodies["clock-free"], version1Bodies["clocked"]} {
		v1, _ := hex.DecodeString(h)
		f.Add(v1, "iterx", uint8(0x31), 0.0)
	}
	// The instance counters: a nil and an empty row, several indexes, a zero
	// and a negative count round-trip; a repeated and a descending index
	// (bodies only an unsorted row encodes to) are refused.
	for _, c := range []Counts{nil, {}, {{-3, 1}, {0, 2}, {5, 7}, {1 << 40, 3}}, {{1, 0}}, {{2, -4}}, {{1, 1}, {1, 2}}, {{2, 1}, {1, 1}}} {
		f.Add(AppendSnapshot(nil, Snapshot{CFGIndex: 1, N: 2, Instances: c}), "", uint8(0x10), 0.0)
	}

	f.Fuzz(func(t *testing.T, blob []byte, names string, shape uint8, vtime float64) {
		if vtime != vtime {
			vtime = 0 // NaN != NaN: DeepEqual could not confirm the round trip
		}
		s := fuzzSnapshot(blob, names, shape, vtime)
		body := AppendSnapshot(nil, s)
		back, err := DecodeSnapshot(body)
		if err != nil || !reflect.DeepEqual(back, s) {
			t.Fatalf("decode(encode(s)) = %+v, %v\nwant %+v", back, err, s)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := DecodeSnapshot(blob)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16+256*uint64(len(blob)) {
			t.Fatalf("decoding %d bytes allocated %d", len(blob), grew)
		}
		if err != nil {
			if !reflect.DeepEqual(got, Snapshot{}) {
				t.Fatalf("failed decode returned a partial snapshot: %+v", got)
			}
			return
		}
		again := AppendSnapshot(nil, got)
		if blob[0] == snapshotVersion {
			// encode(decode(b)) is b with its manifest run, the last, emptied.
			cut := min(len(again)-1, len(blob))
			d := decoder{text: string(blob[cut:]), rest: blob[cut:]}
			d.skipManifest()
			if !bytes.Equal(again[:cut], blob[:cut]) || again[cut] != 0 || d.err != nil || len(d.rest) != 0 {
				t.Fatalf("encode(decode(b)) = %x\nb = %x", again, blob)
			}
		}
		if back, err := DecodeSnapshot(again); err != nil || !sameSnapshot(back, got) {
			t.Fatalf("version %d body: its re-encoding decodes to %+v, %v\nwant %+v", blob[0], back, err, got)
		}

	})
}

var codecSink Snapshot

// BenchmarkSnapshotCodec is the codec alone: encode into a reused buffer,
// decode from a fixed body, for the full and the liveness-pruned shape of
// BenchmarkSaveBytesPruned.
func BenchmarkSnapshotCodec(b *testing.B) {
	full := Snapshot{
		Proc: 0, CFGIndex: 1, Instance: 1_000_000,
		Clock: vclock.VC{1_000_001, 0, 0, 0},
		Vars: map[string]int{"acc": 1_000_000, "halo_l": 1_000_000, "halo_r": 1_000_001, "iter": 1_000_000,
			"grid0": 1_000_000, "grid1": 1_000_001, "grid2": 1_000_002, "grid3": 1_000_003,
			"grid4": 1_000_004, "grid5": 1_000_005, "grid6": 1_000_006, "grid7": 1_000_007},
		PC: "s1000000",
	}
	pruned := full
	pruned.Vars = map[string]int{"acc": 1_000_000, "halo_l": 1_000_000, "halo_r": 1_000_001, "iter": 1_000_000}
	for _, shape := range []struct {
		name string
		snap Snapshot
	}{{"full", full}, {"pruned", pruned}} {
		body := AppendSnapshot(nil, shape.snap)
		b.Run("encode/"+shape.name, func(b *testing.B) {
			buf := make([]byte, 0, 2*len(body))
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				buf = AppendSnapshot(buf[:0], shape.snap)
			}
		})
		b.Run("decode/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var err error
				if codecSink, err = DecodeSnapshot(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
