package live

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"gocast/internal/core"
	"gocast/internal/store"
	"gocast/internal/wire"
)

// scriptConn is a net.Conn for driving writeFrames directly: it logs every
// Write (one per frame: without writev, net.Buffers falls back to a Write
// per buffer) with a "D" entry at each SetWriteDeadline, i.e. at each batch
// boundary; it can fail after a byte budget and hold the first Write at a
// gate. Only the methods below are called.
type scriptConn struct {
	net.Conn
	mu     sync.Mutex
	log    []string
	budget int           // bytes accepted before every Write fails; < 0 is unlimited
	gate   chan struct{} // when set, the first Write waits for it to close
	held   chan struct{} // closed when the first Write reached the gate
	once   sync.Once
}

func (c *scriptConn) Write(b []byte) (int, error) {
	if c.gate != nil {
		c.once.Do(func() { close(c.held) })
		<-c.gate
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget >= 0 && len(b) > c.budget {
		n := c.budget
		c.budget = 0
		return n, errors.New("scriptConn: connection cut")
	}
	if c.budget >= 0 {
		c.budget -= len(b)
	}
	c.log = append(c.log, string(b))
	return len(b), nil
}

func (c *scriptConn) SetWriteDeadline(time.Time) error {
	c.mu.Lock()
	c.log = append(c.log, "D")
	c.mu.Unlock()
	return nil
}

func (c *scriptConn) Close() error { return nil }

func (c *scriptConn) entries() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.log...)
}

// frames returns the logged frames without the batch markers.
func (c *scriptConn) frames() []string {
	var out []string
	for _, e := range c.entries() {
		if e != "D" {
			out = append(out, e)
		}
	}
	return out
}

// seqFrame encodes a frame of the given class carrying seq: a tree-borne
// multicast is Critical, a pulled one Repair, a sync request Background.
func seqFrame(t *testing.T, cls core.Class, seq uint32, payload int) []byte {
	t.Helper()
	var m core.Message
	switch cls {
	case core.ClassCritical, core.ClassRepair:
		m = &core.Multicast{ID: core.MessageID{Source: 1, Seq: seq}, Payload: make([]byte, payload), ViaTree: cls == core.ClassCritical}
	default:
		m = &core.SyncRequest{Ranges: make([]store.SourceRange, seq)}
	}
	if core.ClassOf(m) != cls {
		t.Fatalf("%T is class %v, want %v", m, core.ClassOf(m), cls)
	}
	buf, err := wire.Append(nil, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func mustEnqueue(t *testing.T, pc *peerConn, cls core.Class, frame []byte) {
	t.Helper()
	if res, _ := pc.enqueue(cls, frame); res != enqOK {
		t.Fatalf("enqueue class %v: result %v", cls, res)
	}
}

// drain runs writeFrames on conn until every queued frame has left (or the
// write failed), stops the peer if it is still running, and returns
// writeFrames' verdict.
func drain(t *testing.T, tr *TCPTransport, pc *peerConn, conn *scriptConn, want int) bool {
	t.Helper()
	res := make(chan bool, 1)
	go func() { res <- tr.writeFrames(pc, conn) }()
	deadline := time.Now().Add(5 * time.Second)
	for len(conn.frames()) < want {
		select {
		case r := <-res:
			return r
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("writer wrote %d frames, want %d", len(conn.frames()), want)
		}
		time.Sleep(time.Millisecond)
	}
	pc.stop()
	return <-res
}

// TestTCPBatchSalvage cuts a connection in the middle of a batch that spans
// all three classes. Exactly the frames not written in full go back, each
// to the head of its own class ring and in order, the counters count frames,
// and the next connection sends them ahead of newer frames of their class
// without resending anything that was reported written.
func TestTCPBatchSalvage(t *testing.T) {
	tr := mustTCP(t, 1, fastTCPOptions())
	defer tr.Close()
	pc := tr.newPeerConn("unused", 2)

	var all [][]byte
	add := func(cls core.Class, seq uint32) {
		f := seqFrame(t, cls, seq, 10)
		all = append(all, f)
		mustEnqueue(t, pc, cls, f)
	}
	// Enqueue order interleaves the classes; the batch sorts them Critical,
	// Repair, Background.
	add(core.ClassBackground, 1)
	add(core.ClassRepair, 10)
	add(core.ClassCritical, 20)
	add(core.ClassCritical, 21)
	add(core.ClassRepair, 11)
	add(core.ClassCritical, 22)
	add(core.ClassBackground, 2)
	add(core.ClassCritical, 23)
	crit := [][]byte{all[2], all[3], all[5], all[7]}
	repair := [][]byte{all[1], all[4]}
	bg := [][]byte{all[0], all[6]}

	// The first connection takes two Critical frames and half of the third.
	first := &scriptConn{budget: len(crit[0]) + len(crit[1]) + len(crit[2])/2}
	if redial := drain(t, tr, pc, first, len(all)); !redial {
		t.Fatal("writeFrames did not ask for a redial after the failed write")
	}
	if got := first.frames(); len(got) != 2 || got[0] != string(crit[0]) || got[1] != string(crit[1]) {
		t.Fatalf("first connection carried %d full frames, want the first two Critical ones", len(got))
	}
	st := tr.Stats()
	if st[CtrWriteBatches] != 1 || st[CtrFramesWritten] != 2 || st[CtrWriteErrors] != 1 || st[CtrFramesRequeue] != 6 {
		t.Fatalf("after the cut: batches=%d written=%d write_errors=%d requeued=%d, want 1/2/1/6",
			st[CtrWriteBatches], st[CtrFramesWritten], st[CtrWriteErrors], st[CtrFramesRequeue])
	}
	if per, _ := pc.queuedPerClass(); per != [core.NumClasses]int64{2, 2, 2} {
		t.Fatalf("queued per class after salvage = %v, want [2 2 2]", per)
	}
	if len(pc.batch) != 0 || len(pc.iov) != 0 {
		t.Fatalf("scratch slices not reset after the write: batch %d, iov %d", len(pc.batch), len(pc.iov))
	}
	for i, b := range pc.iov[:cap(pc.iov)] {
		if b != nil {
			t.Fatalf("iov slot %d still pins a frame after the write", i)
		}
	}

	// Lost with the peer, the salvaged frames are counted under their class.
	tr.countQueuedDrops(pc)
	st = tr.Stats()
	if st[CtrDroppedCritical] != 2 || st[CtrDroppedRepair] != 2 || st[CtrDroppedBackground] != 2 || st[CtrFramesDropped] != 6 {
		t.Fatalf("lost-with-peer attribution = %d/%d/%d (total %d), want 2/2/2 (6)",
			st[CtrDroppedCritical], st[CtrDroppedRepair], st[CtrDroppedBackground], st[CtrFramesDropped])
	}

	// A newer Critical frame queues behind the salvaged ones; the next
	// connection carries every unwritten frame once, in class order.
	newer := seqFrame(t, core.ClassCritical, 24, 10)
	mustEnqueue(t, pc, core.ClassCritical, newer)
	second := &scriptConn{budget: -1}
	if redial := drain(t, tr, pc, second, 7); redial {
		t.Fatal("second connection failed")
	}
	want := [][]byte{crit[2], crit[3], newer, repair[0], repair[1], bg[0], bg[1]}
	got := second.frames()
	if len(got) != len(want) {
		t.Fatalf("second connection carried %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != string(want[i]) {
			t.Fatalf("second connection frame %d out of order", i)
		}
	}
	if w := tr.Stats()[CtrFramesWritten]; w != int64(len(all)+1) {
		t.Fatalf("tcp_frames_written = %d for %d distinct frames: a written frame was resent", w, len(all)+1)
	}
}

// TestTCPCriticalLeadsNextBatch holds the writer inside a batch of Repair
// frames with more backlog than one batch takes, then enqueues a Critical
// frame: it must open the very next batch rather than wait out the backlog,
// and no batch may exceed the byte bound by more than its last frame.
func TestTCPCriticalLeadsNextBatch(t *testing.T) {
	opts := fastTCPOptions()
	opts.QueueRepair = 512
	tr := mustTCP(t, 1, opts)
	defer tr.Close()
	pc := tr.newPeerConn("unused", 2)

	const backlog = 300
	var frameLen int
	for i := 0; i < backlog; i++ {
		f := seqFrame(t, core.ClassRepair, uint32(i), 1024)
		frameLen = len(f)
		mustEnqueue(t, pc, core.ClassRepair, f)
	}
	if backlog*frameLen < 2*maxBatchBytes {
		t.Fatalf("backlog of %d bytes does not span two batches of %d", backlog*frameLen, maxBatchBytes)
	}
	conn := &scriptConn{budget: -1, gate: make(chan struct{}), held: make(chan struct{})}
	res := make(chan bool, 1)
	go func() { res <- tr.writeFrames(pc, conn) }()
	<-conn.held // the first batch is popped and its write is in progress
	urgent := seqFrame(t, core.ClassCritical, 9999, 16)
	mustEnqueue(t, pc, core.ClassCritical, urgent)
	close(conn.gate)

	deadline := time.Now().Add(5 * time.Second)
	for len(conn.frames()) < backlog+1 {
		if time.Now().After(deadline) {
			t.Fatalf("writer wrote %d frames, want %d", len(conn.frames()), backlog+1)
		}
		time.Sleep(time.Millisecond)
	}
	pc.stop()
	<-res

	batch, bytes, batches := 0, 0, 0
	for i, e := range conn.entries() {
		if e == "D" {
			batches++
			batch, bytes = 0, 0
			continue
		}
		if bytes >= maxBatchBytes {
			t.Fatalf("batch %d kept taking frames past %d bytes", batches, maxBatchBytes)
		}
		batch++
		bytes += len(e)
		if e == string(urgent) && (batches != 2 || batch != 1) {
			t.Fatalf("Critical frame left as frame %d of batch %d (log entry %d), want first of batch 2", batch, batches, i)
		}
	}
	if st := tr.Stats(); st[CtrWriteBatches] != int64(batches) || st[CtrFramesWritten] != backlog+1 {
		t.Fatalf("batches=%d frames_written=%d, want %d/%d", st[CtrWriteBatches], st[CtrFramesWritten], batches, backlog+1)
	}
}

// TestTCPLoneFrameIsPlainWrite covers the small-message case, a batch of
// one: the frame goes out through a single conn.Write of the queued slice
// and the writer never builds an iovec for it.
func TestTCPLoneFrameIsPlainWrite(t *testing.T) {
	tr := mustTCP(t, 1, fastTCPOptions())
	defer tr.Close()
	pc := tr.newPeerConn("unused", 2)
	conn := &scriptConn{budget: -1}
	res := make(chan bool, 1)
	go func() { res <- tr.writeFrames(pc, conn) }()

	const n = 3
	var sent []string
	for i := 0; i < n; i++ {
		f := seqFrame(t, core.ClassCritical, uint32(i), 64)
		sent = append(sent, string(f))
		mustEnqueue(t, pc, core.ClassCritical, f)
		deadline := time.Now().Add(5 * time.Second)
		for len(conn.frames()) <= i { // the next frame must find the rings empty
			if time.Now().After(deadline) {
				t.Fatalf("frame %d never written", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	pc.stop()
	if redial := <-res; redial {
		t.Fatal("writeFrames reported a failed write")
	}
	got := conn.entries()
	if len(got) != 2*n {
		t.Fatalf("log has %d entries, want a deadline and a write per frame (%d)", len(got), 2*n)
	}
	for i := 0; i < n; i++ {
		if got[2*i] != "D" || got[2*i+1] != sent[i] {
			t.Fatalf("frame %d was not written alone under its own deadline", i)
		}
	}
	if pc.iov != nil || pc.wv != nil {
		t.Fatalf("lone frames built an iovec (cap %d): they must take the plain write path", cap(pc.iov))
	}
	if st := tr.Stats(); st[CtrWriteBatches] != n || st[CtrFramesWritten] != n {
		t.Fatalf("batches=%d frames_written=%d, want %d/%d", st[CtrWriteBatches], st[CtrFramesWritten], n, n)
	}
}

// TestFrameRingUnshift checks requeueing at the head: order is kept across
// the wrap-around, the byte total follows, and a ring already at its cap
// still takes its own frames back while refusing new ones.
func TestFrameRingUnshift(t *testing.T) {
	r := frameRing{cap: 4}
	f := func(s string) []byte { return []byte(s) }
	for _, s := range []string{"a", "b", "c", "d"} {
		if !r.push(f(s)) {
			t.Fatalf("push %q refused below the cap", s)
		}
	}
	a, _ := r.pop()
	b, _ := r.pop()
	r.push(f("e")) // wraps
	r.push(f("f")) // at the cap again
	r.unshift([][]byte{a, b})
	if r.n != 6 || r.bytes != 6 {
		t.Fatalf("after unshift: n=%d bytes=%d, want 6/6", r.n, r.bytes)
	}
	if r.push(f("g")) {
		t.Fatal("push accepted past the cap")
	}
	var got string
	for {
		x, ok := r.pop()
		if !ok {
			break
		}
		got += string(x)
	}
	if got != "abcdef" || r.bytes != 0 {
		t.Fatalf("drained %q (bytes left %d), want abcdef", got, r.bytes)
	}
}
