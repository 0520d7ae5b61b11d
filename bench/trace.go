package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gocast/internal/core"
	"gocast/internal/live"
)

// Tracing from outside the program: every span below is recorded by bench/
// code wrapped around an exported seam (live.Transport, OnDeliver,
// netsim.Options.Observer, Cluster.Run). Spans live in memory and are
// written as Chrome trace events when the run ends.

// Span names. Live: publish -> send -> transit -> node -> deliver, all
// carrying the MessageID. Sim: one span per phase of an iteration.
const (
	spanPublish = iota
	spanSend
	spanTransit
	spanNode
	spanDeliver
	spanIteration
	spanSynthesize
	spanBuild
	spanConverge
	spanStream
	spanRepair
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"publish", "send", "transit", "node", "deliver",
	"iteration", "synthesize", "build", "converge", "stream", "repair",
}

type span struct {
	kind       uint8
	node       int16 // node the span ran on; -1 = the benchmark driver
	peer       int16 // send/transit: the other endpoint; else -1
	sym        int32 // coopcast symbol index; -1 for whole payloads
	msg        core.MessageID
	start, end int64 // ns since the buffer's epoch
	parent     int32 // index of the span that caused this one; -1 = none
}

// spanBuffer is the in-memory span store. Appends past capacity are
// counted, not stored, so a runaway trace cannot exhaust memory.
type spanBuffer struct {
	epoch   time.Time
	limit   int
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newSpanBuffer(limit int) *spanBuffer {
	return &spanBuffer{epoch: time.Now(), limit: limit}
}

func (b *spanBuffer) now() int64 { return int64(time.Since(b.epoch)) }

// add stores s and returns its index (-1 when the buffer is full).
func (b *spanBuffer) add(s span) int32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.spans) >= b.limit {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, s)
	return int32(len(b.spans) - 1)
}

// driverSpan times fn as a span on the benchmark driver (used for the sim
// phases, which have no MessageID).
func (b *spanBuffer) driverSpan(kind uint8, parent int32, fn func()) int32 {
	start := b.now()
	fn()
	return b.add(span{kind: kind, node: -1, peer: -1, sym: -1, start: start, end: b.now(), parent: parent})
}

// selfRow is one line of the self-time table.
type selfRow struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes aggregates, per span name, total duration and self time: a
// span's duration minus the part of its interval its child spans cover.
func (b *spanBuffer) selfTimes() []selfRow {
	b.mu.Lock()
	spans := b.spans
	b.mu.Unlock()
	kids := make([]int32, 0, len(spans))
	for i := range spans {
		if spans[i].parent >= 0 {
			kids = append(kids, int32(i))
		}
	}
	sort.Slice(kids, func(a, c int) bool {
		x, y := &spans[kids[a]], &spans[kids[c]]
		if x.parent != y.parent {
			return x.parent < y.parent
		}
		return x.start < y.start
	})
	covered := make([]int64, len(spans))
	for i := 0; i < len(kids); {
		p := spans[kids[i]].parent
		lo, hi := spans[p].start, spans[p].end
		var sum, curS, curE int64
		open := false
		for ; i < len(kids) && spans[kids[i]].parent == p; i++ {
			s, e := spans[kids[i]].start, spans[kids[i]].end
			if s < lo {
				s = lo
			}
			if e > hi {
				e = hi
			}
			if e <= s {
				continue
			}
			switch {
			case !open:
				curS, curE, open = s, e, true
			case s <= curE:
				if e > curE {
					curE = e
				}
			default:
				sum += curE - curS
				curS, curE = s, e
			}
		}
		if open {
			sum += curE - curS
		}
		covered[p] = sum
	}
	rows := make([]selfRow, numSpanKinds)
	for i := range rows {
		rows[i].name = spanNames[i]
	}
	for i := range spans {
		d := spans[i].end - spans[i].start
		r := &rows[spans[i].kind]
		r.count++
		r.total += time.Duration(d)
		r.self += time.Duration(d - covered[i])
	}
	out := rows[:0]
	for _, r := range rows {
		if r.count > 0 {
			out = append(out, r)
		}
	}
	return out
}

func (b *spanBuffer) printSelfTimes(w io.Writer) {
	fmt.Fprintln(w, " self-time table (span duration minus the part its child spans cover):")
	fmt.Fprintf(w, "  %-11s %10s %14s %14s %12s\n", "span", "count", "total", "self", "self/span")
	for _, r := range b.selfTimes() {
		fmt.Fprintf(w, "  %-11s %10d %14v %14v %12v\n", r.name, r.count,
			r.total.Round(time.Microsecond), r.self.Round(time.Microsecond),
			(r.self / time.Duration(r.count)).Round(10*time.Nanosecond))
	}
	if b.dropped > 0 {
		fmt.Fprintf(w, "  (%d spans past the %d-span buffer were counted, not kept)\n", b.dropped, b.limit)
	}
}

// chromeEvent is one Chrome trace-event ("X" = complete event), the format
// internal/dtrace already exports: one process per message, one thread per
// node.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// The span file is bounded: spans of the first maxTraceFileMessages
// distinct messages, and at most maxTraceFileSpans of them, are written
// (every span still counts in the tables).
const (
	maxTraceFileMessages = 500
	maxTraceFileSpans    = 40_000
)

// writeChrome writes the spans to path as a Chrome trace-event array.
func (b *spanBuffer) writeChrome(path string) (written int, err error) {
	b.mu.Lock()
	spans := b.spans
	b.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	pids := map[core.MessageID]int{}
	w.WriteString("[")
	for i := range spans {
		if written >= maxTraceFileSpans {
			break
		}
		s := &spans[i]
		pid := 0 // driver spans (sim phases) share process 0
		if s.kind <= spanDeliver {
			p, ok := pids[s.msg]
			if !ok {
				if len(pids) >= maxTraceFileMessages {
					continue
				}
				p = len(pids) + 1
				pids[s.msg] = p
			}
			pid = p
		}
		ev := chromeEvent{
			Name: spanNames[s.kind], Cat: "bench", Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: pid, Tid: int(s.node) + 1,
			Args: map[string]any{"span": i, "parent": s.parent},
		}
		if s.kind <= spanDeliver {
			ev.Args["msg"] = fmt.Sprintf("%d/%d", s.msg.Source, s.msg.Seq)
		}
		if s.peer >= 0 {
			ev.Args["peer"] = s.peer
		}
		if s.sym >= 0 {
			ev.Args["symbol"] = s.sym
		}
		js, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return written, err
		}
		if written > 0 {
			w.WriteString(",\n")
		}
		w.Write(js)
		written++
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return written, err
	}
	return written, f.Close()
}

// sendCounter is the netsim.Options.Observer of a traced sim iteration: it
// sums transmissions and their approximate wire bytes.
type sendCounter struct {
	sends, bytes uint64
}

func (c *sendCounter) observe(_, _ core.NodeID, m core.Message) {
	c.sends++
	c.bytes += uint64(m.WireSize())
}

// frameKey identifies one payload-bearing frame on one directed link.
type frameKey struct {
	msg  core.MessageID
	from int16
	sym  int32
}

// payloadFrame reports whether m carries multicast payload (whole or one
// coopcast symbol) and, if so, its message and symbol index.
func payloadFrame(m core.Message) (core.MessageID, int32, bool) {
	switch v := m.(type) {
	case *core.Multicast:
		return v.ID, -1, true
	case *core.Symbol:
		return v.ID, int32(v.Index), true
	}
	return core.MessageID{}, 0, false
}

type sentFrame struct {
	span       int32
	start, end int64
}

type arrival struct {
	at      int64
	from    int16
	transit int32 // transit span that first brought the message here
	node    int32 // node span (arrival -> OnDeliver), set at delivery
	hops    int8
}

// rxState is one node's view of the traced traffic addressed to it.
// Senders insert under mu from their own event loops; the node's transport
// read loop and event loop look up under the same mu.
type rxState struct {
	mu      sync.Mutex
	pending map[frameKey]sentFrame      // frames sent to this node, not yet received
	arrived map[core.MessageID]*arrival // first arrival (or local publish) per message
}

// liveTracer records the live span chain and the T metrics. It is inert
// (one atomic load per frame) while off, so one cluster serves the traced
// and the untraced windows of a -trace run.
type liveTracer struct {
	on    atomic.Bool
	buf   *spanBuffer
	nodes []*rxState

	frames    atomic.Int64 // every frame sent while on, any kind
	wireBytes atomic.Int64

	sampleMu sync.Mutex
	transit  []float64 // us, Send entry -> handler entry
	nodeProc []float64 // us, handler entry -> OnDeliver
	hopsSum  int64
	hopsN    int64
}

func newLiveTracer(nodes int, buf *spanBuffer) *liveTracer {
	t := &liveTracer{buf: buf, nodes: make([]*rxState, nodes)}
	for i := range t.nodes {
		t.nodes[i] = &rxState{pending: map[frameKey]sentFrame{}, arrived: map[core.MessageID]*arrival{}}
	}
	return t
}

// beginPublish opens message id at its publisher before Publish is called,
// so the sends core issues from inside Publish find their parent span.
func (t *liveTracer) beginPublish(pub int, id core.MessageID, start int64) int32 {
	idx := t.buf.add(span{kind: spanPublish, node: int16(pub), peer: -1, sym: -1, msg: id, start: start, end: start, parent: -1})
	rx := t.nodes[pub]
	rx.mu.Lock()
	rx.arrived[id] = &arrival{at: start, from: -1, transit: -1, node: idx}
	rx.mu.Unlock()
	return idx
}

// beginSend records a payload frame about to be handed to the transport.
// The pending entry must exist before the bytes can reach the receiver, so
// it is inserted first and completed by endSend.
func (t *liveTracer) beginSend(from, to int, id core.MessageID, sym int32, start int64) int32 {
	parent := int32(-1)
	rx := t.nodes[from]
	rx.mu.Lock()
	if a := rx.arrived[id]; a != nil {
		parent = a.node
	}
	rx.mu.Unlock()
	idx := t.buf.add(span{kind: spanSend, node: int16(from), peer: int16(to), sym: sym, msg: id, start: start, end: start, parent: parent})
	dst := t.nodes[to]
	dst.mu.Lock()
	dst.pending[frameKey{id, int16(from), sym}] = sentFrame{span: idx, start: start}
	dst.mu.Unlock()
	return idx
}

func (t *liveTracer) endSend(from, to int, id core.MessageID, sym int32, idx int32, end int64) {
	t.setEnd(idx, end)
	key := frameKey{id, int16(from), sym}
	dst := t.nodes[to]
	dst.mu.Lock()
	if p, ok := dst.pending[key]; ok && p.span == idx {
		p.end = end
		dst.pending[key] = p
	}
	dst.mu.Unlock()
}

// setEnd closes a span that was added open (publish, send) once its call
// returned.
func (t *liveTracer) setEnd(idx int32, end int64) {
	if idx < 0 {
		return
	}
	t.buf.mu.Lock()
	t.buf.spans[idx].end = end
	t.buf.mu.Unlock()
}

func (t *liveTracer) noteRecv(from, to int, id core.MessageID, sym int32, at int64) {
	rx := t.nodes[to]
	key := frameKey{id, int16(from), sym}
	rx.mu.Lock()
	sent, ok := rx.pending[key]
	delete(rx.pending, key)
	first := ok && rx.arrived[id] == nil
	rx.mu.Unlock()
	if !ok {
		return // sent before tracing was switched on
	}
	if sent.end == 0 {
		sent.end = sent.start // received before Send even returned
	}
	tr := t.buf.add(span{kind: spanTransit, node: int16(to), peer: int16(from), sym: sym, msg: id, start: sent.end, end: at, parent: sent.span})
	if first {
		// The sender forwarded after its own arrival, so its hop count is
		// settled; it is read under the sender's lock, never both locks.
		var hops int8
		src := t.nodes[from]
		src.mu.Lock()
		if a := src.arrived[id]; a != nil {
			hops = a.hops + 1
		}
		src.mu.Unlock()
		rx.mu.Lock()
		if rx.arrived[id] == nil { // several read loops may race for "first"
			rx.arrived[id] = &arrival{at: at, from: int16(from), transit: tr, node: -1, hops: hops}
		}
		rx.mu.Unlock()
	}
	t.sampleMu.Lock()
	t.transit = append(t.transit, float64(at-sent.start)/1e3)
	t.sampleMu.Unlock()
}

// noteDeliver records the node and deliver spans of one OnDeliver call.
func (t *liveTracer) noteDeliver(node int, id core.MessageID, start, end int64) {
	rx := t.nodes[node]
	rx.mu.Lock()
	a := rx.arrived[id]
	rx.mu.Unlock()
	if a == nil {
		return // arrived before tracing was switched on
	}
	if a.from < 0 {
		// The publisher's own delivery happens inside Publish.
		t.buf.add(span{kind: spanDeliver, node: int16(node), peer: -1, sym: -1, msg: id, start: start, end: end, parent: a.node})
		return
	}
	n := t.buf.add(span{kind: spanNode, node: int16(node), peer: a.from, sym: -1, msg: id, start: a.at, end: start, parent: a.transit})
	rx.mu.Lock()
	a.node = n
	rx.mu.Unlock()
	t.buf.add(span{kind: spanDeliver, node: int16(node), peer: -1, sym: -1, msg: id, start: start, end: end, parent: n})
	t.sampleMu.Lock()
	t.nodeProc = append(t.nodeProc, float64(start-a.at)/1e3)
	t.hopsSum += int64(a.hops)
	t.hopsN++
	t.sampleMu.Unlock()
}

// tracedTransport wraps a node's real TCP transport. It forwards the
// optional surfaces NewNode discovers by type assertion — queue pressure
// (so the overload governor still sees the TCP rings) and Stats (so the
// transport counters still reach the registry).
type tracedTransport struct {
	inner *live.TCPTransport
	id    int
	tr    *liveTracer
}

var _ live.Transport = (*tracedTransport)(nil)

func (t *tracedTransport) Addr() string            { return t.inner.Addr() }
func (t *tracedTransport) Close() error            { return t.inner.Close() }
func (t *tracedTransport) Stats() map[string]int64 { return t.inner.Stats() }

func (t *tracedTransport) QueuePressure() live.QueuePressure { return t.inner.QueuePressure() }
func (t *tracedTransport) SetPressureHandler(fn func())      { t.inner.SetPressureHandler(fn) }

func (t *tracedTransport) Send(addr string, to core.NodeID, m core.Message) {
	if !t.tr.on.Load() {
		t.inner.Send(addr, to, m)
		return
	}
	t.tr.frames.Add(1)
	t.tr.wireBytes.Add(int64(m.WireSize()))
	id, sym, ok := payloadFrame(m)
	if !ok {
		t.inner.Send(addr, to, m)
		return
	}
	idx := t.tr.beginSend(t.id, int(to), id, sym, t.tr.buf.now())
	t.inner.Send(addr, to, m)
	t.tr.endSend(t.id, int(to), id, sym, idx, t.tr.buf.now())
}

func (t *tracedTransport) SendDatagram(addr string, to core.NodeID, m core.Message) {
	t.inner.SendDatagram(addr, to, m)
}

func (t *tracedTransport) SetHandlers(h live.Handler, f live.FailureHandler) {
	t.inner.SetHandlers(func(from core.NodeID, m core.Message) {
		if t.tr.on.Load() {
			if id, sym, ok := payloadFrame(m); ok {
				t.tr.noteRecv(int(from), t.id, id, sym, t.tr.buf.now())
			}
		}
		h(from, m)
	}, f)
}
