// Package wire serializes GoCast protocol messages for the live transport
// (internal/live). Frames are length-prefixed:
//
//	uint32  payload length (not counting this prefix)
//	int32   sender node ID
//	uint8   message kind
//	...     kind-specific fields, little-endian
//
// Strings carry a uint16 length; slices a uint16 count. The format is
// symmetric and fully covered by round-trip tests against the in-memory
// message structs used by the simulator, so simulated and live deployments
// run byte-compatible protocols.
//
// Buffer ownership on decode. ReadFrame allocates one buffer per frame,
// reads the frame into it and owns it, so the message it returns aliases
// its []byte fields (Symbol.Data, Multicast.Payload) into that buffer:
// no second allocation, no copy, and the buffer lives exactly as long as
// the message's holder keeps those fields. Decode parses a buffer the
// caller owns and may reuse (the UDP loop's datagram buffer, a fuzzer's
// input), so it copies every []byte field and the caller may overwrite
// the buffer as soon as Decode returns. SyncReply pages are copied on both
// paths: a page carries many items in one frame of up to SyncBatchBytes,
// and one retained item would otherwise pin the whole page. Strings are
// always copied.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"gocast/internal/core"
	"gocast/internal/store"
)

// MaxFrame bounds a frame's payload, protecting receivers from bogus
// length prefixes.
const MaxFrame = 1 << 22 // 4 MiB

var (
	// ErrFrameTooLarge reports a length prefix above MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrTruncated reports a frame shorter than its fields require.
	ErrTruncated = errors.New("wire: truncated frame")
)

// Append serializes one message (with its sender) onto buf and returns
// the extended slice, frame prefix included.
func Append(buf []byte, from core.NodeID, m core.Message) ([]byte, error) {
	start := len(buf)
	// Grow once up front: WireSize is the protocol's own size model, so a
	// frame encoding into a fresh or tight buffer reallocates at most one
	// time instead of log(frame) times through append.
	if need := m.WireSize() + 16; cap(buf)-start < need {
		grown := make([]byte, start, start+need)
		copy(grown, buf)
		buf = grown
	}
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	var e encoder
	e.buf = buf
	e.i32(int32(from))
	e.u8(uint8(m.Kind()))
	if err := e.message(m); err != nil {
		return buf[:start], err
	}
	payload := len(e.buf) - start - 4
	if payload > MaxFrame {
		return buf[:start], ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(e.buf[start:], uint32(payload))
	return e.buf, nil
}

// WriteFrame serializes and writes one framed message.
func WriteFrame(w io.Writer, from core.NodeID, m core.Message) error {
	buf, err := Append(nil, from, m)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads one framed message from r. The message's []byte fields
// alias the frame buffer allocated here (see the package doc); pass a
// bufio.Reader to read many small frames per syscall.
func ReadFrame(r io.Reader) (core.NodeID, core.Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return core.None, nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > MaxFrame {
		return core.None, nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return core.None, nil, err
	}
	return decode(payload, true)
}

// Decode parses a frame payload (without the length prefix). The result
// shares no memory with payload, which the caller keeps.
func Decode(payload []byte) (core.NodeID, core.Message, error) {
	return decode(payload, false)
}

func decode(payload []byte, alias bool) (core.NodeID, core.Message, error) {
	d := decoder{buf: payload, alias: alias}
	from := core.NodeID(d.i32())
	kind := core.MsgKind(d.u8())
	m, err := d.message(kind)
	if err != nil {
		return core.None, nil, err
	}
	if d.err != nil {
		return core.None, nil, d.err
	}
	if d.off != len(d.buf) {
		return core.None, nil, fmt.Errorf("wire: %d trailing bytes", len(d.buf)-d.off)
	}
	return from, m, nil
}

// --- encoding ---

type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8)          { e.buf = append(e.buf, v) }
func (e *encoder) b(v bool)            { e.u8(boolByte(v)) }
func (e *encoder) u16(v uint16)        { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32)        { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) i32(v int32)         { e.u32(uint32(v)) }
func (e *encoder) i64(v int64)         { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v)) }
func (e *encoder) u64(v uint64)        { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) dur(d time.Duration) { e.i64(int64(d)) }

func (e *encoder) str(s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("wire: string too long (%d bytes)", len(s))
	}
	e.u16(uint16(len(s)))
	e.buf = append(e.buf, s...)
	return nil
}

func (e *encoder) bytes(b []byte) error {
	if len(b) > MaxFrame/2 {
		return fmt.Errorf("wire: byte slice too long (%d)", len(b))
	}
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	return nil
}

func (e *encoder) entry(en core.Entry) error {
	e.i32(int32(en.ID))
	e.u32(en.Inc)
	if err := e.str(en.Addr); err != nil {
		return err
	}
	n := en.Landmarks.Len()
	if n > math.MaxUint16 {
		return errors.New("wire: landmark vector too long")
	}
	e.u16(uint16(n))
	for i := 0; i < n; i++ {
		e.u16(en.Landmarks.At(i))
	}
	return nil
}

func (e *encoder) entries(es []core.Entry) error {
	if len(es) > math.MaxUint16 {
		return errors.New("wire: too many entries")
	}
	e.u16(uint16(len(es)))
	for _, en := range es {
		if err := e.entry(en); err != nil {
			return err
		}
	}
	return nil
}

func (e *encoder) degrees(d core.Degrees) {
	e.u16(uint16(d.Rand))
	e.u16(uint16(d.Near))
	e.dur(d.MaxNearbyRTT)
}

func (e *encoder) msgID(id core.MessageID) {
	e.i32(int32(id.Source))
	e.u32(id.Seq)
}

// hop writes the 10-byte dissemination trace context: flags, hop count,
// origin stamp. All zeros for unsampled messages.
func (e *encoder) hop(h core.Hop) {
	e.b(h.Sampled)
	e.u8(h.Hops)
	e.dur(h.Origin)
}

func (e *encoder) symbolSet(s store.SymbolSet) {
	for _, w := range s {
		e.u64(w)
	}
}

func (e *encoder) symbol(v *core.Symbol) error {
	e.msgID(v.ID)
	e.dur(v.Age)
	e.u16(v.Index)
	e.u16(v.K)
	e.u16(v.N)
	e.u32(v.PayloadLen)
	if err := e.bytes(v.Data); err != nil {
		return err
	}
	e.b(v.ViaTree)
	e.hop(v.Hop)
	return nil
}

func (e *encoder) message(m core.Message) error {
	switch v := m.(type) {
	case *core.JoinRequest:
		return e.entry(v.From)
	case *core.JoinReply:
		if err := e.entries(v.Members); err != nil {
			return err
		}
		if err := e.entries(v.Landmarks); err != nil {
			return err
		}
		e.i32(int32(v.Root))
	case *core.Ping:
		if err := e.entry(v.From); err != nil {
			return err
		}
		e.u32(v.Nonce)
	case *core.Pong:
		if err := e.entry(v.From); err != nil {
			return err
		}
		e.u32(v.Nonce)
		e.degrees(v.Degrees)
	case *core.AddRequest:
		if err := e.entry(v.From); err != nil {
			return err
		}
		e.u8(uint8(v.LinkKind))
		e.dur(v.RTT)
		e.degrees(v.Degrees)
		e.b(v.ForRebalance)
	case *core.AddReply:
		if err := e.entry(v.From); err != nil {
			return err
		}
		e.u8(uint8(v.LinkKind))
		e.b(v.Accepted)
		e.dur(v.RTT)
		e.degrees(v.Degrees)
		e.b(v.ForRebalance)
	case *core.Drop:
		e.degrees(v.Degrees)
		e.b(v.Departing)
	case *core.Rebalance:
		return e.entry(v.Target)
	case *core.RebalanceReply:
		e.i32(int32(v.Target))
		e.b(v.OK)
	case *core.Gossip:
		if len(v.IDs) > math.MaxUint16 {
			return errors.New("wire: too many gossip IDs")
		}
		e.u16(uint16(len(v.IDs)))
		for _, g := range v.IDs {
			e.msgID(g.ID)
			e.dur(g.Age)
			e.hop(g.Hop)
		}
		if err := e.entries(v.Members); err != nil {
			return err
		}
		e.degrees(v.Degrees)
		if len(v.Obits) > math.MaxUint16 {
			return errors.New("wire: too many obituaries")
		}
		e.u16(uint16(len(v.Obits)))
		for _, ob := range v.Obits {
			e.i32(int32(ob.ID))
			e.u32(ob.Inc)
		}
		if len(v.Syms) > math.MaxUint16 {
			return errors.New("wire: too many symbol adverts")
		}
		e.u16(uint16(len(v.Syms)))
		for i := range v.Syms {
			ad := &v.Syms[i]
			e.msgID(ad.ID)
			e.dur(ad.Age)
			e.u16(ad.K)
			e.u16(ad.N)
			e.u32(ad.PayloadLen)
			e.symbolSet(ad.Have)
		}
	case *core.PullRequest:
		if len(v.IDs) > math.MaxUint16 {
			return errors.New("wire: too many pull IDs")
		}
		e.u16(uint16(len(v.IDs)))
		for _, id := range v.IDs {
			e.msgID(id)
		}
	case *core.Multicast:
		e.msgID(v.ID)
		e.dur(v.Age)
		if err := e.bytes(v.Payload); err != nil {
			return err
		}
		e.b(v.ViaTree)
		e.hop(v.Hop)
	case *core.TreeAdvert:
		e.i32(int32(v.Root))
		e.u32(v.Epoch)
		e.u32(v.Wave)
		e.dur(v.Dist)
	case *core.TreeParent:
		e.b(v.On)
	case *core.TreeAdvertReq:
		// No fields.
	case *core.SyncRequest:
		if len(v.Ranges) > math.MaxUint16 {
			return errors.New("wire: too many sync ranges")
		}
		e.u16(uint16(len(v.Ranges)))
		for _, r := range v.Ranges {
			e.i32(r.Source)
			e.u32(r.Low)
			e.u32(r.High)
		}
	case *core.SyncReply:
		if len(v.Items) > math.MaxUint16 {
			return errors.New("wire: too many sync items")
		}
		e.u16(uint16(len(v.Items)))
		for _, it := range v.Items {
			e.msgID(it.ID)
			e.dur(it.Age)
			if err := e.bytes(it.Payload); err != nil {
				return err
			}
			e.hop(it.Hop)
		}
		e.b(v.More)
		if len(v.Syms) > math.MaxUint16 {
			return errors.New("wire: too many sync symbols")
		}
		e.u16(uint16(len(v.Syms)))
		for i := range v.Syms {
			if err := e.symbol(&v.Syms[i]); err != nil {
				return err
			}
		}
	case *core.PullMiss:
		if len(v.IDs) > math.MaxUint16 {
			return errors.New("wire: too many pull-miss IDs")
		}
		e.u16(uint16(len(v.IDs)))
		for _, id := range v.IDs {
			e.msgID(id)
		}
	case *core.Symbol:
		return e.symbol(v)
	case *core.SymbolPull:
		e.msgID(v.ID)
		e.symbolSet(v.Want)
	default:
		return fmt.Errorf("wire: unknown message type %T", m)
	}
	return nil
}

// --- decoding ---

type decoder struct {
	buf   []byte
	off   int
	err   error
	alias bool // buf is ours: []byte fields may point into it
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

func (d *decoder) u8() uint8 {
	if d.off+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) b() bool { return d.u8() != 0 }

func (d *decoder) u16() uint16 {
	if d.off+2 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) i32() int32 { return int32(d.u32()) }

func (d *decoder) i64() int64 {
	if d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return int64(v)
}

func (d *decoder) dur() time.Duration { return time.Duration(d.i64()) }

func (d *decoder) str() string {
	n := int(d.u16())
	if d.off+n > len(d.buf) {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if n == 0 {
		return nil
	}
	// Mirror the encoder's cap so every accepted payload re-encodes.
	if n > MaxFrame/2 || d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	end := d.off + n
	// The capacity stops at the field's end, so an append on an aliased
	// field reallocates instead of running into the next field.
	b := d.buf[d.off:end:end]
	if !d.alias {
		// The caller reuses buf (UDP loop, fuzzers): the message must not
		// point into it.
		b = make([]byte, n)
		copy(b, d.buf[d.off:end])
	}
	d.off = end
	return b
}

func (d *decoder) entry() core.Entry {
	var en core.Entry
	en.ID = core.NodeID(d.i32())
	en.Inc = d.u32()
	en.Addr = d.str()
	n := int(d.u16())
	if n > 0 {
		if d.off+2*n > len(d.buf) {
			d.fail()
			return en
		}
		var buf [16]uint16
		ms := buf[:0]
		for i := 0; i < n; i++ {
			ms = append(ms, d.u16())
		}
		en.Landmarks = core.NewLandmarkVec(ms...)
	}
	return en
}

func (d *decoder) entries() []core.Entry {
	n := int(d.u16())
	if n == 0 {
		return nil
	}
	// Each entry needs at least 8 bytes; reject absurd counts early.
	if d.off+8*n > len(d.buf) {
		d.fail()
		return nil
	}
	es := make([]core.Entry, n)
	for i := range es {
		es[i] = d.entry()
	}
	return es
}

func (d *decoder) degrees() core.Degrees {
	var deg core.Degrees
	deg.Rand = int16(d.u16())
	deg.Near = int16(d.u16())
	deg.MaxNearbyRTT = d.dur()
	return deg
}

func (d *decoder) msgID() core.MessageID {
	var id core.MessageID
	id.Source = core.NodeID(d.i32())
	id.Seq = d.u32()
	return id
}

func (d *decoder) hop() core.Hop {
	return core.Hop{Sampled: d.b(), Hops: d.u8(), Origin: d.dur()}
}

func (d *decoder) u64() uint64 {
	if d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) symbolSet() store.SymbolSet {
	var s store.SymbolSet
	for i := range s {
		s[i] = d.u64()
	}
	return s
}

func (d *decoder) symbol() core.Symbol {
	return core.Symbol{
		ID: d.msgID(), Age: d.dur(), Index: d.u16(),
		K: d.u16(), N: d.u16(), PayloadLen: d.u32(),
		Data: d.bytes(), ViaTree: d.b(), Hop: d.hop(),
	}
}

func (d *decoder) message(kind core.MsgKind) (core.Message, error) {
	switch kind {
	case core.KindJoinRequest:
		return &core.JoinRequest{From: d.entry()}, nil
	case core.KindJoinReply:
		m := &core.JoinReply{}
		m.Members = d.entries()
		m.Landmarks = d.entries()
		m.Root = core.NodeID(d.i32())
		return m, nil
	case core.KindPing:
		return &core.Ping{From: d.entry(), Nonce: d.u32()}, nil
	case core.KindPong:
		return &core.Pong{From: d.entry(), Nonce: d.u32(), Degrees: d.degrees()}, nil
	case core.KindAddRequest:
		return &core.AddRequest{
			From: d.entry(), LinkKind: core.LinkKind(d.u8()), RTT: d.dur(),
			Degrees: d.degrees(), ForRebalance: d.b(),
		}, nil
	case core.KindAddReply:
		return &core.AddReply{
			From: d.entry(), LinkKind: core.LinkKind(d.u8()), Accepted: d.b(),
			RTT: d.dur(), Degrees: d.degrees(), ForRebalance: d.b(),
		}, nil
	case core.KindDrop:
		return &core.Drop{Degrees: d.degrees(), Departing: d.b()}, nil
	case core.KindRebalance:
		return &core.Rebalance{Target: d.entry()}, nil
	case core.KindRebalanceReply:
		return &core.RebalanceReply{Target: core.NodeID(d.i32()), OK: d.b()}, nil
	case core.KindGossip:
		m := &core.Gossip{}
		n := int(d.u16())
		if n > 0 {
			// Each gossip ID is exactly 26 bytes (ID + age + hop context).
			if d.off+26*n > len(d.buf) {
				d.fail()
				return m, d.err
			}
			m.IDs = make([]core.GossipID, n)
			for i := range m.IDs {
				m.IDs[i] = core.GossipID{ID: d.msgID(), Age: d.dur(), Hop: d.hop()}
			}
		}
		m.Members = d.entries()
		m.Degrees = d.degrees()
		if n := int(d.u16()); n > 0 {
			if d.off+8*n > len(d.buf) {
				d.fail()
				return m, d.err
			}
			m.Obits = make([]core.Obituary, n)
			for i := range m.Obits {
				m.Obits[i] = core.Obituary{ID: core.NodeID(d.i32()), Inc: d.u32()}
			}
		}
		// Symbol-advert section (coopcast). Each advert is exactly 56 bytes.
		if n := int(d.u16()); n > 0 {
			if d.off+56*n > len(d.buf) {
				d.fail()
				return m, d.err
			}
			m.Syms = make([]core.SymbolAdvert, n)
			for i := range m.Syms {
				m.Syms[i] = core.SymbolAdvert{
					ID: d.msgID(), Age: d.dur(),
					K: d.u16(), N: d.u16(), PayloadLen: d.u32(),
					Have: d.symbolSet(),
				}
			}
		}
		return m, nil
	case core.KindPullRequest:
		m := &core.PullRequest{}
		n := int(d.u16())
		if n > 0 {
			if d.off+8*n > len(d.buf) {
				d.fail()
				return m, d.err
			}
			m.IDs = make([]core.MessageID, n)
			for i := range m.IDs {
				m.IDs[i] = d.msgID()
			}
		}
		return m, nil
	case core.KindMulticast:
		return &core.Multicast{ID: d.msgID(), Age: d.dur(), Payload: d.bytes(), ViaTree: d.b(), Hop: d.hop()}, nil
	case core.KindTreeAdvert:
		return &core.TreeAdvert{
			Root: core.NodeID(d.i32()), Epoch: d.u32(), Wave: d.u32(), Dist: d.dur(),
		}, nil
	case core.KindTreeParent:
		return &core.TreeParent{On: d.b()}, nil
	case core.KindTreeAdvertReq:
		return &core.TreeAdvertReq{}, nil
	case core.KindSyncRequest:
		m := &core.SyncRequest{}
		n := int(d.u16())
		if n > 0 {
			if d.off+12*n > len(d.buf) {
				d.fail()
				return m, d.err
			}
			m.Ranges = make([]store.SourceRange, n)
			for i := range m.Ranges {
				m.Ranges[i] = store.SourceRange{Source: d.i32(), Low: d.u32(), High: d.u32()}
			}
		}
		return m, nil
	case core.KindSyncReply:
		// One retained item must not pin a whole sync page.
		d.alias = false
		m := &core.SyncReply{}
		n := int(d.u16())
		if n > 0 {
			// Each item needs at least 30 bytes (ID + age + payload length +
			// hop context).
			if d.off+30*n > len(d.buf) {
				d.fail()
				return m, d.err
			}
			m.Items = make([]core.SyncItem, n)
			for i := range m.Items {
				m.Items[i] = core.SyncItem{ID: d.msgID(), Age: d.dur(), Payload: d.bytes(), Hop: d.hop()}
			}
		}
		m.More = d.b()
		// Symbol section (coopcast). Each symbol needs at least 41 bytes of
		// fixed fields.
		if n := int(d.u16()); n > 0 {
			if d.off+41*n > len(d.buf) {
				d.fail()
				return m, d.err
			}
			m.Syms = make([]core.Symbol, n)
			for i := range m.Syms {
				m.Syms[i] = d.symbol()
			}
		}
		return m, nil
	case core.KindPullMiss:
		m := &core.PullMiss{}
		n := int(d.u16())
		if n > 0 {
			if d.off+8*n > len(d.buf) {
				d.fail()
				return m, d.err
			}
			m.IDs = make([]core.MessageID, n)
			for i := range m.IDs {
				m.IDs[i] = d.msgID()
			}
		}
		return m, nil
	case core.KindSymbol:
		m := d.symbol()
		return &m, nil
	case core.KindSymbolPull:
		return &core.SymbolPull{ID: d.msgID(), Want: d.symbolSet()}, nil
	default:
		return nil, fmt.Errorf("wire: unknown message kind %d", kind)
	}
}

func boolByte(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}
