package live

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gocast/internal/core"
	"gocast/internal/wire"
)

// Rings and framing: the per-peer frame queues, the writer's drain onto a
// connection and the read loops. Connection lifecycle (dial, backoff, reap,
// drop) lives in tcp.go.

// frameRing is a circular buffer of encoded frames that grows lazily up to
// a fixed capacity, tracking its queued byte total.
type frameRing struct {
	buf   [][]byte
	head  int
	n     int
	cap   int
	bytes int64
}

func (r *frameRing) push(b []byte) bool {
	if r.n >= r.cap {
		return false
	}
	if r.n == len(r.buf) {
		r.grow(min(max(2*len(r.buf), 16), r.cap))
	}
	r.buf[(r.head+r.n)%len(r.buf)] = b
	r.n++
	r.bytes += int64(len(b))
	return true
}

// grow moves the queued frames into a buffer of the given size.
func (r *frameRing) grow(size int) {
	nb := make([][]byte, size)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf, r.head = nb, 0
}

// unshift puts frames back at the head of the ring in their order, ahead
// of everything queued. The cap does not apply: these frames were admitted
// once already, and until they drain the ring refuses new ones past it.
func (r *frameRing) unshift(frames [][]byte) {
	if need := r.n + len(frames); need > len(r.buf) {
		r.grow(max(need, 16))
	}
	for i := len(frames) - 1; i >= 0; i-- {
		r.head = (r.head - 1 + len(r.buf)) % len(r.buf)
		r.buf[r.head] = frames[i]
		r.bytes += int64(len(frames[i]))
	}
	r.n += len(frames)
}

func (r *frameRing) pop() ([]byte, bool) {
	if r.n == 0 {
		return nil, false
	}
	b := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	r.bytes -= int64(len(b))
	return b, true
}

// enqResult is the outcome of admitting a frame to a peer's queue.
type enqResult int8

const (
	enqOK       enqResult = iota
	enqShed               // frame dropped, peer survives
	enqOverflow           // Critical hard cap exceeded: peer must be dropped
	enqStopped            // peer already stopped
)

// maxBatchBytes bounds the frames one writer wakeup takes off the rings
// (the frame that crosses it is the last one taken), so a Critical frame
// enqueued just after a pop waits behind at most one batch of lower-class
// traffic. 128 KiB holds a whole pull reply of 66 one-KiB symbols in one
// writev and is well under a loopback or LAN socket buffer.
const maxBatchBytes = 128 << 10

// readBufBytes sizes each connection's read buffer: one read syscall
// drains up to that many bytes of small frames.
const readBufBytes = 64 << 10

// peerConn is an outbound connection with a writer goroutine, so the
// node's event loop never blocks on the network. Frames are queued in one
// ring per admission class, drained Critical first; the rings survive
// redials, so frames enqueued while the connection is down are delivered
// once it is re-established.
type peerConn struct {
	addr     string
	to       core.NodeID
	done     chan struct{}
	once     sync.Once
	conn     net.Conn     // guarded by the transport mutex
	lastUsed atomic.Int64 // unix nanos of the last Send toward this peer

	qmu   sync.Mutex
	rings [core.NumClasses]frameRing
	wake  chan struct{} // carries at most one token; writer drains per token

	// Flow control: a peer whose per-frame write latency EWMA exceeds
	// SlowWriteThreshold is "slow" — Background enqueues pause and Repair
	// halves — until the EWMA falls below half the threshold.
	slow   atomic.Bool
	ewmaNs atomic.Int64

	// Owned by the writer goroutine: the frames of the write in progress
	// (Critical first, batchN of each class) and the iovec built from them.
	// net.Buffers.WriteTo consumes the slice it is called on, so iov is the
	// reusable backing and wv the header handed to WriteTo; what wv still
	// holds after a failed write are the frames not written in full.
	batch  [][]byte
	batchN [core.NumClasses]int
	iov    net.Buffers
	wv     net.Buffers
}

// newPeerConn returns the queue state for one peer, rings sized from the
// transport's options, with no writer attached yet.
func (t *TCPTransport) newPeerConn(addr string, to core.NodeID) *peerConn {
	pc := &peerConn{
		addr: addr,
		to:   to,
		done: make(chan struct{}),
		wake: make(chan struct{}, 1),
	}
	pc.rings[core.ClassCritical].cap = t.opts.QueueCriticalHard
	pc.rings[core.ClassRepair].cap = t.opts.QueueRepair
	pc.rings[core.ClassBackground].cap = t.opts.QueueBackground
	pc.lastUsed.Store(time.Now().UnixNano())
	return pc
}

func (pc *peerConn) stop() { pc.once.Do(func() { close(pc.done) }) }

// enqueue admits one encoded frame under class cls, returning the outcome
// and (on success) the Critical ring depth for the caller's watermark
// check. The Critical ring's cap is the hard cap; soft-cap policy lives in
// the caller.
func (pc *peerConn) enqueue(cls core.Class, buf []byte) (res enqResult, critDepth int) {
	select {
	case <-pc.done:
		return enqStopped, 0
	default:
	}
	pc.qmu.Lock()
	r := &pc.rings[cls]
	switch cls {
	case core.ClassBackground:
		if pc.slow.Load() || r.n >= r.cap {
			pc.qmu.Unlock()
			return enqShed, 0
		}
	case core.ClassRepair:
		if r.n >= r.cap || (pc.slow.Load() && r.n >= r.cap/2) {
			pc.qmu.Unlock()
			return enqShed, 0
		}
	}
	if !r.push(buf) {
		pc.qmu.Unlock()
		if cls == core.ClassCritical {
			return enqOverflow, 0
		}
		return enqShed, 0
	}
	critDepth = pc.rings[core.ClassCritical].n
	pc.qmu.Unlock()
	select {
	case pc.wake <- struct{}{}:
	default:
	}
	return enqOK, critDepth
}

// popBatch takes everything queued right now into pc.batch, Critical ring
// first, up to maxBatchBytes, and reports whether there was anything.
func (pc *peerConn) popBatch() bool {
	pc.qmu.Lock()
	defer pc.qmu.Unlock()
	bytes := 0
	for c := range pc.rings {
		r := &pc.rings[c]
		for r.n > 0 && bytes < maxBatchBytes {
			b, _ := r.pop()
			pc.batch = append(pc.batch, b)
			pc.batchN[c]++
			bytes += len(b)
		}
	}
	return len(pc.batch) > 0
}

// finishBatch ends a write: the first `written` frames of pc.batch went out
// in full, the rest (none unless the write failed) return to the head of
// their class rings in their original order, and both scratch slices are
// cleared so they do not pin sent frames.
func (pc *peerConn) finishBatch(written int) {
	if written < len(pc.batch) {
		pc.qmu.Lock()
		lo := 0
		for c, n := range pc.batchN {
			hi := lo + n
			if written < hi {
				pc.rings[c].unshift(pc.batch[max(lo, written):hi])
			}
			lo = hi
		}
		pc.qmu.Unlock()
	}
	clear(pc.batch)
	clear(pc.iov)
	pc.batch, pc.iov, pc.wv = pc.batch[:0], pc.iov[:0], nil
	pc.batchN = [core.NumClasses]int{}
}

// queuedPerClass snapshots the per-class queue depths (drop accounting,
// idle reaping).
func (pc *peerConn) queuedPerClass() (out [core.NumClasses]int64, total int64) {
	pc.qmu.Lock()
	defer pc.qmu.Unlock()
	for c := range pc.rings {
		out[c] = int64(pc.rings[c].n)
		total += out[c]
	}
	return out, total
}

// pressure reports this peer's ring occupancy relative to the soft caps.
func (pc *peerConn) pressure(critSoft, repairCap, bgCap int) (crit, worst float64, bytes int64) {
	pc.qmu.Lock()
	defer pc.qmu.Unlock()
	crit = float64(pc.rings[core.ClassCritical].n) / float64(critSoft)
	worst = crit
	if f := float64(pc.rings[core.ClassRepair].n) / float64(repairCap); f > worst {
		worst = f
	}
	if f := float64(pc.rings[core.ClassBackground].n) / float64(bgCap); f > worst {
		worst = f
	}
	for c := range pc.rings {
		bytes += pc.rings[c].bytes
	}
	return crit, worst, bytes
}

// writeFrames pumps queued frames onto conn until the peer stops (returns
// false) or a write fails (returns true to redial). Each wakeup drains what
// is queued and never waits for more: one batch, one write deadline, one
// writev. A failed write requeues exactly the frames not written in full.
func (t *TCPTransport) writeFrames(pc *peerConn, conn net.Conn) bool {
	for {
		for !pc.popBatch() {
			select {
			case <-pc.done:
				conn.Close()
				return false
			case <-pc.wake:
			}
		}
		frames := len(pc.batch)
		start := time.Now()
		conn.SetWriteDeadline(start.Add(t.opts.WriteTimeout))
		var err error
		written := 0
		if frames == 1 {
			// A lone frame (every write on an idle or small-message link)
			// stays a plain write: there is no iovec to build and writev
			// of one buffer saves nothing.
			if _, err = conn.Write(pc.batch[0]); err == nil {
				written = 1
			}
		} else {
			pc.iov = append(pc.iov, pc.batch...)
			pc.wv = pc.iov
			_, err = pc.wv.WriteTo(conn)
			written = frames - len(pc.wv)
		}
		t.ctr.writeBatches.Add(1)
		t.ctr.framesWritten.Add(int64(written))
		pc.finishBatch(written)
		if err != nil {
			// A partly written frame is fine to resend whole: the broken
			// connection is discarded, so the remote never sees a frame
			// spliced across connections.
			t.ctr.writeErrors.Add(1)
			t.ctr.framesRequeued.Add(int64(frames - written))
			conn.Close()
			t.mu.Lock()
			if pc.conn == conn {
				pc.conn = nil
			}
			t.mu.Unlock()
			return true
		}
		// The EWMA and SlowWriteThreshold are per frame.
		t.noteWriteLatency(pc, time.Since(start)/time.Duration(frames))
	}
}

// noteWriteLatency feeds one frame's write duration into the peer's EWMA
// and flips its slow flag with hysteresis: pause above the threshold,
// resume below half of it.
func (t *TCPTransport) noteWriteLatency(pc *peerConn, d time.Duration) {
	thresh := t.opts.SlowWriteThreshold
	if thresh <= 0 {
		return
	}
	old := pc.ewmaNs.Load()
	ewma := old + (int64(d)-old)/8
	pc.ewmaNs.Store(ewma)
	switch {
	case !pc.slow.Load() && ewma > int64(thresh):
		pc.slow.Store(true)
		t.ctr.peerPauses.Add(1)
		t.notifyPressure(false)
	case pc.slow.Load() && ewma < int64(thresh)/2:
		pc.slow.Store(false)
		t.ctr.peerResumes.Add(1)
	}
}

func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return
	}
	t.inbound[conn] = true
	t.mu.Unlock()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, readBufBytes)
	for {
		from, m, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		t.deliver(from, m)
	}
}

func (t *TCPTransport) udpLoop() {
	defer t.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, _, err := t.udp.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if n < 4 {
			continue
		}
		// buf is reused for the next datagram, so this is the copying
		// decode.
		from, m, err := wire.Decode(buf[4:n])
		if err != nil {
			continue
		}
		t.deliver(from, m)
	}
}

// deliver hands one inbound message to the registered handler.
func (t *TCPTransport) deliver(from core.NodeID, m core.Message) {
	if h := t.handler.Load(); h != nil {
		(*h)(from, m)
	}
}
