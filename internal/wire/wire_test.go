package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"gocast/internal/core"
	"gocast/internal/store"
)

func sampleMessages() []core.Message {
	entry := core.Entry{ID: 7, Inc: 3, Addr: "10.0.0.7:9000", Landmarks: core.NewLandmarkVec(12, 99, 4)}
	bare := core.Entry{ID: 3}
	return []core.Message{
		&core.JoinRequest{From: entry},
		&core.JoinRequest{From: core.Entry{ID: 2, Inc: 0xFFFFFFFF}},
		&core.JoinReply{
			Members:   []core.Entry{entry, bare},
			Landmarks: []core.Entry{bare},
			Root:      5,
		},
		&core.JoinReply{Root: core.None},
		&core.Ping{From: entry, Nonce: 42},
		&core.Pong{From: bare, Nonce: 42, Degrees: core.Degrees{Rand: 1, Near: 5, MaxNearbyRTT: 80 * time.Millisecond}},
		&core.AddRequest{From: entry, LinkKind: core.Nearby, RTT: 33 * time.Millisecond, Degrees: core.Degrees{Near: 4}, ForRebalance: true},
		&core.AddReply{From: entry, LinkKind: core.Random, Accepted: true, RTT: time.Second, Degrees: core.Degrees{Rand: 2}},
		&core.Drop{Degrees: core.Degrees{Rand: 1, Near: 5}},
		&core.Drop{Degrees: core.Degrees{Near: 2}, Departing: true},
		&core.Rebalance{Target: entry},
		&core.RebalanceReply{Target: 9, OK: true},
		&core.Gossip{
			IDs: []core.GossipID{
				{ID: core.MessageID{Source: 1, Seq: 2}, Age: 50 * time.Millisecond},
				{ID: core.MessageID{Source: 3, Seq: 0}},
				{
					ID: core.MessageID{Source: 4, Seq: 1}, Age: time.Second,
					Hop: core.Hop{Sampled: true, Hops: 3, Origin: 90 * time.Second},
				},
			},
			Members: []core.Entry{entry},
			Degrees: core.Degrees{Rand: 1, Near: 6, MaxNearbyRTT: time.Millisecond},
			Obits:   []core.Obituary{{ID: 12, Inc: 1}, {ID: 40, Inc: 0}},
		},
		&core.Gossip{Obits: []core.Obituary{{ID: 9, Inc: 7}}},
		&core.Gossip{},
		&core.PullRequest{IDs: []core.MessageID{{Source: 4, Seq: 9}}},
		&core.PullRequest{},
		&core.Multicast{ID: core.MessageID{Source: 2, Seq: 7}, Age: 123 * time.Millisecond, Payload: []byte("payload"), ViaTree: true},
		&core.Multicast{ID: core.MessageID{Source: 2, Seq: 8}},
		// Sampled dissemination trace hop context riding on a push.
		&core.Multicast{
			ID: core.MessageID{Source: 2, Seq: 10}, Age: time.Millisecond,
			Payload: []byte("traced"), ViaTree: true,
			Hop: core.Hop{Sampled: true, Hops: 2, Origin: 5 * time.Minute},
		},
		&core.TreeAdvert{Root: 0, Epoch: 3, Wave: 17, Dist: 45 * time.Millisecond},
		&core.TreeParent{On: true},
		&core.TreeParent{},
		&core.TreeAdvertReq{},
		&core.SyncRequest{Ranges: []store.SourceRange{
			{Source: 1, Low: 0, High: 42},
			{Source: -9, Low: 7, High: 0xFFFFFFFF},
		}},
		&core.SyncRequest{},
		&core.SyncReply{
			Items: []core.SyncItem{
				{ID: core.MessageID{Source: 2, Seq: 5}, Age: 40 * time.Millisecond, Payload: []byte("recovered")},
				{ID: core.MessageID{Source: 3, Seq: 0}},
				{
					ID: core.MessageID{Source: 3, Seq: 9}, Payload: []byte("traced"),
					Hop: core.Hop{Sampled: true, Hops: 7, Origin: time.Hour},
				},
			},
			More: true,
		},
		&core.SyncReply{},
		&core.PullMiss{IDs: []core.MessageID{{Source: 4, Seq: 9}, {Source: 4, Seq: 10}}},
		&core.PullMiss{},
		// Coopcast: tree-striped symbol, pulled repair symbol, and the
		// degenerate zero-data symbol.
		&core.Symbol{
			ID: core.MessageID{Source: 6, Seq: 2}, Age: 9 * time.Millisecond,
			Index: 3, K: 8, N: 10, PayloadLen: 8 << 10,
			Data: []byte("symbol-data"), ViaTree: true,
		},
		&core.Symbol{ID: core.MessageID{Source: 6, Seq: 3}, Index: 9, K: 1, N: 2, PayloadLen: 1, Data: []byte{0xAB}},
		&core.Symbol{},
		&core.Symbol{
			ID: core.MessageID{Source: 6, Seq: 4}, Age: time.Millisecond,
			Index: 1, K: 4, N: 6, PayloadLen: 4 << 10,
			Data: []byte("traced-symbol"), ViaTree: true,
			Hop: core.Hop{Sampled: true, Hops: 1, Origin: 30 * time.Second},
		},
		&core.SymbolPull{
			ID:   core.MessageID{Source: 6, Seq: 2},
			Want: store.SymbolSet{0x5, 0, 0, 1 << 63},
		},
		&core.SymbolPull{},
		// Gossip carrying symbol adverts, including a K=1 geometry and a
		// saturated 256-bit bitmap.
		&core.Gossip{
			Degrees: core.Degrees{Rand: 2},
			Syms: []core.SymbolAdvert{
				{
					ID: core.MessageID{Source: 6, Seq: 2}, Age: time.Second,
					K: 8, N: 10, PayloadLen: 8 << 10,
					Have: store.SymbolSet{0x3FF, 0, 0, 0},
				},
				{
					ID: core.MessageID{Source: 7, Seq: 1},
					K:  1, N: 1, PayloadLen: 100,
					Have: store.SymbolSet{1, 0, 0, 0},
				},
				{
					ID: core.MessageID{Source: 8, Seq: 4}, Age: time.Minute,
					K: 252, N: 256, PayloadLen: 1 << 20,
					Have: store.SymbolSet{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
				},
			},
		},
		// Sync reply paging symbols alongside whole items.
		&core.SyncReply{
			Items: []core.SyncItem{{ID: core.MessageID{Source: 2, Seq: 5}, Payload: []byte("whole")}},
			Syms: []core.Symbol{
				{ID: core.MessageID{Source: 6, Seq: 2}, Index: 0, K: 2, N: 3, PayloadLen: 12, Data: []byte("half-a")},
				{ID: core.MessageID{Source: 6, Seq: 2}, Index: 2, K: 2, N: 3, PayloadLen: 12, Data: []byte("parity")},
			},
			More: true,
		},
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	for _, m := range sampleMessages() {
		buf, err := Append(nil, 11, m)
		if err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		from, got, err := Decode(buf[4:])
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if from != 11 {
			t.Fatalf("%T: sender = %d, want 11", m, from)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%T round trip mismatch:\n in: %#v\nout: %#v", m, m, got)
		}
	}
}

// TestLandmarkEntriesEncodeUnchanged pins the bytes of entries carrying
// landmark vectors (one short, one past the decoder's 16-value stack
// buffer) to the encoding recorded before Entry shared its vector by
// pointer, and checks that they decode back to equal vectors.
func TestLandmarkEntriesEncodeUnchanged(t *testing.T) {
	entry := core.Entry{ID: 7, Inc: 3, Addr: "10.0.0.7:9000", Landmarks: core.NewLandmarkVec(12, 99, 4)}
	long := core.Entry{ID: 300, Inc: 1, Landmarks: core.NewLandmarkVec(0, 65535, 180, 2, 9, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)}
	cases := []struct {
		m    core.Message
		want string
	}{
		{&core.Ping{From: entry, Nonce: 42},
			"28000000050000000307000000030000000d0031302e302e302e373a3930303003000c00630004002a000000"},
		{&core.Gossip{Members: []core.Entry{entry, long, {ID: 4}}},
			"74000000050000000a0000030007000000030000000d0031302e302e302e373a3930303003000c00630004002c01000001000000000012000000ffffb400020009000b000d001100130017001d001f00250029002b002f0035003b0004000000000000000000000000000000000000000000000000000000"},
	}
	for _, c := range cases {
		b, err := Append(nil, 5, c.m)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != c.want {
			t.Errorf("%T encodes as\n%s\nwant\n%s", c.m, got, c.want)
		}
		_, back, err := Decode(b[4:])
		if err != nil {
			t.Fatalf("%T: %v", c.m, err)
		}
		if !reflect.DeepEqual(back, c.m) {
			t.Errorf("%T decodes to %+v, want %+v", c.m, back, c.m)
		}
	}
}

func TestStreamReadWrite(t *testing.T) {
	var buf bytes.Buffer
	msgs := sampleMessages()
	for _, m := range msgs {
		if err := WriteFrame(&buf, 3, m); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for i, want := range msgs {
		from, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if from != 3 || !reflect.DeepEqual(want, got) {
			t.Fatalf("frame %d mismatch: %#v vs %#v", i, want, got)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d leftover bytes", buf.Len())
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	for _, m := range sampleMessages() {
		buf, err := Append(nil, 1, m)
		if err != nil {
			t.Fatal(err)
		}
		payload := buf[4:]
		for cut := 0; cut < len(payload); cut++ {
			if _, _, err := Decode(payload[:cut]); err == nil {
				// Cutting after all required fields of a message with no
				// trailing data cannot happen: Decode checks for exact
				// consumption, so any strict prefix must fail.
				t.Fatalf("%T: truncation to %d/%d bytes accepted", m, cut, len(payload))
			}
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	buf, err := Append(nil, 1, &core.TreeParent{On: true})
	if err != nil {
		t.Fatal(err)
	}
	payload := append(buf[4:], 0xEE)
	if _, _, err := Decode(payload); err == nil {
		t.Fatalf("trailing garbage accepted")
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	payload := []byte{1, 0, 0, 0, 0xFF}
	if _, _, err := Decode(payload); err == nil {
		t.Fatalf("unknown kind accepted")
	}
}

func TestReadFrameRejectsHugeLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := ReadFrame(&buf); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestDecodeRejectsAbsurdCounts(t *testing.T) {
	// A gossip claiming 65535 IDs in a tiny frame must fail fast, not
	// allocate.
	payload := []byte{1, 0, 0, 0, byte(core.KindGossip), 0xFF, 0xFF}
	if _, _, err := Decode(payload); err == nil {
		t.Fatalf("absurd ID count accepted")
	}
}

// randHop returns a hop context that is sampled half the time; unsampled
// hops still carry arbitrary field values (the codec must not canonicalize).
func randHop(rng *rand.Rand) core.Hop {
	return core.Hop{
		Sampled: rng.Intn(2) == 0,
		Hops:    uint8(rng.Intn(256)),
		Origin:  time.Duration(rng.Intn(1e9)),
	}
}

// Property: random gossips and multicasts round-trip.
func TestPropertyRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		var m core.Message
		switch rng.Intn(5) {
		case 0:
			g := &core.Gossip{Degrees: core.Degrees{
				Rand:         int16(rng.Intn(8)),
				Near:         int16(rng.Intn(8)),
				MaxNearbyRTT: time.Duration(rng.Intn(1e9)),
			}}
			for i := 0; i < rng.Intn(5); i++ {
				g.IDs = append(g.IDs, core.GossipID{
					ID:  core.MessageID{Source: core.NodeID(rng.Intn(1000)), Seq: rng.Uint32()},
					Age: time.Duration(rng.Intn(1e9)),
					Hop: randHop(rng),
				})
			}
			for i := 0; i < rng.Intn(3); i++ {
				e := core.Entry{ID: core.NodeID(rng.Intn(1000)), Inc: rng.Uint32()}
				if rng.Intn(2) == 0 {
					e.Addr = "127.0.0.1:1"
				}
				var lm []uint16
				for j := 0; j < rng.Intn(4); j++ {
					lm = append(lm, uint16(rng.Intn(1000)))
				}
				e.Landmarks = core.NewLandmarkVec(lm...)
				g.Members = append(g.Members, e)
			}
			for i := 0; i < rng.Intn(4); i++ {
				g.Obits = append(g.Obits, core.Obituary{
					ID:  core.NodeID(rng.Intn(1000)),
					Inc: rng.Uint32(),
				})
			}
			m = g
		case 1:
			mc := &core.Multicast{
				ID:      core.MessageID{Source: core.NodeID(rng.Intn(1000)), Seq: rng.Uint32()},
				Age:     time.Duration(rng.Intn(1e9)),
				ViaTree: rng.Intn(2) == 0,
				Hop:     randHop(rng),
			}
			if n := rng.Intn(64); n > 0 {
				mc.Payload = make([]byte, n)
				rng.Read(mc.Payload)
			}
			m = mc
		case 2:
			sr := &core.SyncRequest{}
			for i := 0; i < rng.Intn(6); i++ {
				low := rng.Uint32()
				sr.Ranges = append(sr.Ranges, store.SourceRange{
					Source: int32(rng.Intn(1000)),
					Low:    low,
					High:   low + uint32(rng.Intn(1000)),
				})
			}
			m = sr
		case 3:
			rep := &core.SyncReply{More: rng.Intn(2) == 0}
			for i := 0; i < rng.Intn(4); i++ {
				it := core.SyncItem{
					ID:  core.MessageID{Source: core.NodeID(rng.Intn(1000)), Seq: rng.Uint32()},
					Age: time.Duration(rng.Intn(1e9)),
					Hop: randHop(rng),
				}
				if n := rng.Intn(32); n > 0 {
					it.Payload = make([]byte, n)
					rng.Read(it.Payload)
				}
				rep.Items = append(rep.Items, it)
			}
			m = rep
		default:
			pr := &core.PullRequest{}
			for i := 0; i < rng.Intn(6); i++ {
				pr.IDs = append(pr.IDs, core.MessageID{Source: core.NodeID(rng.Intn(100)), Seq: rng.Uint32()})
			}
			m = pr
		}
		buf, err := Append(nil, core.NodeID(rng.Intn(1000)), m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		_, got, err := Decode(buf[4:])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("trial %d mismatch:\n%#v\n%#v", trial, m, got)
		}
	}
}

func BenchmarkEncodeGossip(b *testing.B) {
	g := &core.Gossip{
		IDs: []core.GossipID{
			{ID: core.MessageID{Source: 1, Seq: 2}, Age: time.Millisecond},
			{ID: core.MessageID{Source: 5, Seq: 9}, Age: time.Second},
		},
		Members: []core.Entry{{ID: 4, Addr: "127.0.0.1:4", Landmarks: core.NewLandmarkVec(1, 2, 3)}},
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = Append(buf[:0], 1, g)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeGossip(b *testing.B) {
	g := &core.Gossip{
		IDs:     []core.GossipID{{ID: core.MessageID{Source: 1, Seq: 2}, Age: time.Millisecond}},
		Members: []core.Entry{{ID: 4, Addr: "127.0.0.1:4"}},
	}
	buf, err := Append(nil, 1, g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf[4:]); err != nil {
			b.Fatal(err)
		}
	}
}

// corpusPayloads returns the committed fuzz corpus's inputs.
func corpusPayloads(t *testing.T) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecode", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed fuzz corpus (%v)", err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		lit, okP := strings.CutPrefix(lit, "[]byte(")
		lit, okS := strings.CutSuffix(lit, ")")
		s, err := strconv.Unquote(lit)
		if !ok || !okP || !okS || err != nil {
			t.Fatalf("%s: not a one-argument []byte corpus file (%v)", f, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// overlaps reports whether two slices share any byte of backing memory
// (capacity included, so a later append cannot collide either).
func overlaps(a, b []byte) bool {
	a, b = a[:cap(a)], b[:cap(b)]
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}

// byteFields lists the []byte fields the decoder fills.
func byteFields(m core.Message) [][]byte {
	switch v := m.(type) {
	case *core.Multicast:
		return [][]byte{v.Payload}
	case *core.Symbol:
		return [][]byte{v.Data}
	case *core.SyncReply:
		var out [][]byte
		for _, it := range v.Items {
			out = append(out, it.Payload)
		}
		for _, s := range v.Syms {
			out = append(out, s.Data)
		}
		return out
	}
	return nil
}

// TestDecodeOwnership pins the buffer-ownership contract over the samples
// and the committed fuzz corpus: the aliasing decode (ReadFrame's) and the
// copying Decode agree on every input; Decode's result shares nothing with
// the caller's buffer, so overwriting it afterwards changes nothing; the
// aliasing decode points Multicast and Symbol bytes into the frame with the
// capacity cut at the field's end, and still copies SyncReply pages.
func TestDecodeOwnership(t *testing.T) {
	payloads := corpusPayloads(t)
	for _, m := range sampleMessages() {
		frame, err := Append(nil, 5, m)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, frame[4:])
	}
	var aliased int
	for _, p := range payloads {
		buf := append([]byte(nil), p...)
		fromC, copied, errC := Decode(buf)
		fromA, al, errA := decode(append([]byte(nil), p...), true)
		if (errC == nil) != (errA == nil) || fromC != fromA || !reflect.DeepEqual(copied, al) {
			t.Fatalf("payload %x: copying decode (%d, %#v, %v) != aliasing decode (%d, %#v, %v)",
				p, fromC, copied, errC, fromA, al, errA)
		}
		if errC != nil {
			continue
		}
		for _, f := range byteFields(copied) {
			if overlaps(f, buf) {
				t.Fatalf("%T: Decode result points into the caller's buffer", copied)
			}
		}
		for i := range buf {
			buf[i] ^= 0xFF
		}
		if !reflect.DeepEqual(copied, al) {
			t.Fatalf("%T changed when the caller's buffer was overwritten after Decode", copied)
		}

		own := append([]byte(nil), p...)
		_, al, _ = decode(own, true)
		for _, f := range byteFields(al) {
			if len(f) == 0 {
				continue
			}
			_, page := al.(*core.SyncReply)
			if got := overlaps(f, own); got == page {
				t.Fatalf("%T: field aliases the frame = %v, want %v", al, got, !page)
			}
			if !page {
				aliased++
				if cap(f) != len(f) {
					t.Fatalf("%T: aliased field has cap %d > len %d: an append would overwrite the next field", al, cap(f), len(f))
				}
			}
		}
	}
	if aliased == 0 {
		t.Fatal("no input exercised an aliased field")
	}
}

// TestReadFrameBuffered reads frames back-to-back through one bufio.Reader,
// as the live read loop does: every message decodes, and no two messages
// share memory with each other (each frame owns its buffer; nothing points
// into the reader's).
func TestReadFrameBuffered(t *testing.T) {
	var stream bytes.Buffer
	var want []core.Message
	for i := 0; i < 8; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 1024)
		m := &core.Symbol{ID: core.MessageID{Source: 1, Seq: 9}, Index: uint16(i), K: 64, N: 66, PayloadLen: 65536, Data: data, ViaTree: true}
		if err := WriteFrame(&stream, 3, m); err != nil {
			t.Fatal(err)
		}
		want = append(want, m)
	}
	big := &core.Multicast{ID: core.MessageID{Source: 2, Seq: 1}, Payload: bytes.Repeat([]byte{0xAB}, 100<<10)} // larger than the reader's buffer
	if err := WriteFrame(&stream, 3, big); err != nil {
		t.Fatal(err)
	}
	want = append(want, big)

	br := bufio.NewReaderSize(&stream, 64<<10)
	var got []core.Message
	for range want {
		from, m, err := ReadFrame(br)
		if err != nil || from != 3 {
			t.Fatalf("ReadFrame: from %d, err %v", from, err)
		}
		got = append(got, m)
	}
	if _, _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("after the last frame: err = %v, want io.EOF", err)
	}
	// Compare only after everything was read: a field pointing into the
	// reader's buffer would have been overwritten by the later frames.
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("frame %d mismatch after later reads", i)
		}
		for j := i + 1; j < len(got); j++ {
			if overlaps(byteFields(got[i])[0], byteFields(got[j])[0]) {
				t.Fatalf("frames %d and %d share memory", i, j)
			}
		}
	}
}
