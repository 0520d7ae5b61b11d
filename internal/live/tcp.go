package live

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gocast/internal/core"
	"gocast/internal/wire"
)

// Transport counter names, visible in Stats snapshots. The redial counters
// are how soak tests (and operators) verify that a broken link was
// re-established by backoff rather than torn down.
const (
	CtrDials         = "tcp_dials"           // successful outbound connections
	CtrDialErrors    = "tcp_dial_errors"     // failed dial attempts
	CtrRedials       = "tcp_redials"         // successful dials that replaced a prior connection or retry
	CtrBackoffResets = "tcp_backoff_resets"  // backoff returned to its base after a successful redial
	CtrWriteErrors   = "tcp_write_errors"    // writes that failed (broken pipe, deadline)
	CtrFramesRequeue = "tcp_frames_requeued" // frames not written in full when a write failed, put back for the next connection
	CtrFramesDropped = "tcp_frames_dropped"  // reliable frames abandoned, all classes (shed, peer down, overflow)
	CtrQueueOverflow = "tcp_queue_overflows" // times the Critical ring hit its hard cap and the peer was dropped
	CtrEncodeErrors  = "tcp_encode_errors"   // frames that failed wire serialization
	CtrIdleReaped    = "tcp_idle_reaped"     // outbound connections reaped for inactivity
	CtrPeersFailed   = "tcp_peers_failed"    // peers reported down after redial attempts were exhausted
	CtrWriteBatches  = "tcp_write_batches"   // write/writev calls made by the peer writers (one per writer wakeup)
	CtrFramesWritten = "tcp_frames_written"  // frames written in full; ÷ tcp_write_batches = frames per syscall

	// Per-class drop attribution and flow control (overload protection).
	CtrDroppedCritical   = "tcp_frames_dropped_critical"   // Critical frames lost (peer drop or hard-cap overflow)
	CtrDroppedRepair     = "tcp_frames_dropped_repair"     // Repair frames shed or lost
	CtrDroppedBackground = "tcp_frames_dropped_background" // Background frames shed or lost
	CtrPeerPauses        = "tcp_peer_pauses"               // peers marked slow (Background/Repair paused)
	CtrPeerResumes       = "tcp_peer_resumes"              // slow peers recovered
)

// tcpCounts holds one counter per Ctr* name. Writers, dialers and the
// reaper all count, so each is an atomic.
type tcpCounts struct {
	dials, dialErrors, redials, backoffResets  atomic.Int64
	writeErrors, framesRequeued, framesDropped atomic.Int64
	queueOverflows, encodeErrors, idleReaped   atomic.Int64
	peersFailed, writeBatches, framesWritten   atomic.Int64
	peerPauses, peerResumes                    atomic.Int64
	// droppedByClass is indexed by core.Class.
	droppedByClass [core.NumClasses]atomic.Int64
}

// dropped counts n abandoned frames of class cls.
func (c *tcpCounts) dropped(cls core.Class, n int64) {
	c.framesDropped.Add(n)
	c.droppedByClass[cls].Add(n)
}

// snapshot returns every counter under its Ctr* name.
func (c *tcpCounts) snapshot() map[string]int64 {
	return map[string]int64{
		CtrDials:             c.dials.Load(),
		CtrDialErrors:        c.dialErrors.Load(),
		CtrRedials:           c.redials.Load(),
		CtrBackoffResets:     c.backoffResets.Load(),
		CtrWriteErrors:       c.writeErrors.Load(),
		CtrFramesRequeue:     c.framesRequeued.Load(),
		CtrFramesDropped:     c.framesDropped.Load(),
		CtrQueueOverflow:     c.queueOverflows.Load(),
		CtrEncodeErrors:      c.encodeErrors.Load(),
		CtrIdleReaped:        c.idleReaped.Load(),
		CtrPeersFailed:       c.peersFailed.Load(),
		CtrWriteBatches:      c.writeBatches.Load(),
		CtrFramesWritten:     c.framesWritten.Load(),
		CtrDroppedCritical:   c.droppedByClass[core.ClassCritical].Load(),
		CtrDroppedRepair:     c.droppedByClass[core.ClassRepair].Load(),
		CtrDroppedBackground: c.droppedByClass[core.ClassBackground].Load(),
		CtrPeerPauses:        c.peerPauses.Load(),
		CtrPeerResumes:       c.peerResumes.Load(),
	}
}

// TCPOptions tunes the transport's resilience behavior. The zero value is
// replaced field-by-field with the defaults documented below.
type TCPOptions struct {
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// WriteTimeout is the deadline of one write (the frames queued at that
	// moment, at most 128 KiB plus one frame); a peer that stalls longer than
	// this has its connection broken and redialed so the writer goroutine
	// can never wedge forever (default 10s).
	WriteTimeout time.Duration
	// RedialAttempts is how many consecutive failed dials are tolerated
	// before the peer is reported to the FailureHandler (default 3;
	// negative disables redial entirely — first failure reports).
	RedialAttempts int
	// RedialBackoff is the initial redial backoff; each failed attempt
	// doubles it, jittered to [0.5x, 1.5x) (default 100ms).
	RedialBackoff time.Duration
	// RedialBackoffMax caps the exponential backoff (default 3s).
	RedialBackoffMax time.Duration
	// IdleTimeout reaps outbound connections with no traffic for this
	// long; reaping is silent (no failure report) and the next Send
	// redials (default 5m; negative disables reaping).
	IdleTimeout time.Duration
	// Logf receives rare diagnostic lines, e.g. the once-per-peer encode
	// error report (default log.Printf).
	Logf func(format string, args ...any)

	// QueueCritical is the per-peer Critical-class ring's soft cap
	// (default 256). The ring may grow past it up to QueueCriticalHard
	// while the overload governor reacts; occupancy beyond the soft cap
	// reads as pressure > 1.0.
	QueueCritical int
	// QueueCriticalHard is the Critical ring's hard cap (default
	// 4*QueueCritical). Only when it is exceeded is the peer declared
	// overflowed and dropped — the pre-classing behavior, now reserved
	// for a truly wedged peer.
	QueueCriticalHard int
	// QueueRepair caps the per-peer Repair ring (default 128); overflow
	// sheds the frame, not the peer (gossip re-announces and anti-entropy
	// sync recover the content later).
	QueueRepair int
	// QueueBackground caps the per-peer Background ring (default 64);
	// overflow sheds the frame.
	QueueBackground int
	// SlowWriteThreshold marks a peer slow when its per-frame write
	// latency EWMA exceeds it; a slow peer has Background traffic paused
	// and Repair traffic halved until the EWMA falls below half the
	// threshold (default 200ms; negative disables flow control).
	SlowWriteThreshold time.Duration
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	switch {
	case o.RedialAttempts == 0:
		o.RedialAttempts = 3
	case o.RedialAttempts < 0:
		o.RedialAttempts = 0
	}
	if o.RedialBackoff <= 0 {
		o.RedialBackoff = 100 * time.Millisecond
	}
	if o.RedialBackoffMax <= 0 {
		o.RedialBackoffMax = 3 * time.Second
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	if o.QueueCritical <= 0 {
		o.QueueCritical = 256
	}
	if o.QueueCriticalHard <= 0 {
		o.QueueCriticalHard = 4 * o.QueueCritical
	}
	if o.QueueCriticalHard < o.QueueCritical {
		o.QueueCriticalHard = o.QueueCritical
	}
	if o.QueueRepair <= 0 {
		o.QueueRepair = 128
	}
	if o.QueueBackground <= 0 {
		o.QueueBackground = 64
	}
	if o.SlowWriteThreshold == 0 {
		o.SlowWriteThreshold = 200 * time.Millisecond
	}
	return o
}

// TCPTransport carries reliable traffic over TCP connections (one per
// peer, dialed on demand, as the paper's pre-established connections
// between overlay neighbors) and datagrams over UDP on the same port
// number.
//
// The transport is resilient: a broken or stalled connection is redialed
// with exponential backoff, and frames queued (or not written in full)
// when the pipe broke are resent on the new connection. Only after
// RedialAttempts consecutive failed dials is the peer reported to the
// FailureHandler — so the protocol layer hears about persistent failures,
// not transient network blips.
type TCPTransport struct {
	id   core.NodeID
	ln   net.Listener
	udp  *net.UDPConn
	addr string
	opts TCPOptions

	// lastPressure rate-limits pressure-handler kicks (unix nanos).
	lastPressure atomic.Int64

	// handler is read once per inbound frame, so it lives outside mu.
	handler atomic.Pointer[Handler]

	mu         sync.Mutex
	conns      map[string]*peerConn
	udpAddrs   map[string]*net.UDPAddr // resolved datagram targets, dropped with the peer
	inbound    map[net.Conn]bool
	failure    FailureHandler
	pressureH  func()
	closed     bool
	encLogged  map[string]bool // peers whose encode errors were already logged
	wg         sync.WaitGroup
	stopReaper chan struct{}

	// ctr comes last, away from handler and mu, which every inbound frame
	// and every Send touch: each writer adds to it once per write.
	ctr tcpCounts
}

var _ Transport = (*TCPTransport)(nil)

// errPeerStopped signals the writer loop that its peer was dropped or the
// transport closed.
var errPeerStopped = errors.New("live: peer stopped")

// NewTCPTransport listens on listenAddr (e.g. "127.0.0.1:0") for both TCP
// and UDP with default resilience options. id is stamped on outgoing
// frames.
func NewTCPTransport(id core.NodeID, listenAddr string) (*TCPTransport, error) {
	return NewTCPTransportWithOptions(id, listenAddr, TCPOptions{})
}

// NewTCPTransportWithOptions listens on listenAddr with explicit
// reconnect/deadline tuning.
func NewTCPTransportWithOptions(id core.NodeID, listenAddr string, opts TCPOptions) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("live: listen tcp: %w", err)
	}
	udpAddr, err := net.ResolveUDPAddr("udp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, err
	}
	udp, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("live: listen udp: %w", err)
	}
	t := &TCPTransport{
		id:         id,
		ln:         ln,
		udp:        udp,
		addr:       ln.Addr().String(),
		opts:       opts.withDefaults(),
		conns:      make(map[string]*peerConn),
		udpAddrs:   make(map[string]*net.UDPAddr),
		inbound:    make(map[net.Conn]bool),
		encLogged:  make(map[string]bool),
		stopReaper: make(chan struct{}),
	}
	t.wg.Add(2)
	go t.acceptLoop()
	go t.udpLoop()
	if t.opts.IdleTimeout > 0 {
		t.wg.Add(1)
		go t.reapLoop()
	}
	return t, nil
}

// Addr returns the listening address.
func (t *TCPTransport) Addr() string { return t.addr }

// Stats returns a snapshot of the transport's counters, one entry per Ctr*
// name.
func (t *TCPTransport) Stats() map[string]int64 { return t.ctr.snapshot() }

// SetHandlers registers the inbound callbacks.
func (t *TCPTransport) SetHandlers(h Handler, f FailureHandler) {
	if h == nil {
		t.handler.Store(nil)
	} else {
		t.handler.Store(&h)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failure = f
}

// encodeError counts a wire serialization failure and logs it once per
// peer (they indicate a bug or an oversized payload, not a network issue).
func (t *TCPTransport) encodeError(addr string, err error) {
	t.ctr.encodeErrors.Add(1)
	t.mu.Lock()
	logged := t.encLogged[addr]
	if !logged {
		t.encLogged[addr] = true
	}
	t.mu.Unlock()
	if !logged {
		t.opts.Logf("live: node %d: dropping unencodable frame for %s: %v", t.id, addr, err)
	}
}

// Send queues a reliable frame toward addr, dialing if needed. The frame
// is admitted under its message class: a full Background or Repair ring
// (or a slow peer) sheds the frame — the gossip/sync machinery recovers
// the content later — while Critical frames ride the elastic ring and
// only a hard-cap overflow (a truly wedged peer) drops the peer.
func (t *TCPTransport) Send(addr string, to core.NodeID, m core.Message) {
	cls := core.ClassOf(m)
	buf, err := wire.Append(nil, t.id, m)
	if err != nil {
		t.encodeError(addr, err)
		return
	}
	pc := t.peer(addr, to)
	if pc == nil {
		return
	}
	pc.lastUsed.Store(time.Now().UnixNano())
	res, critDepth := pc.enqueue(cls, buf)
	switch res {
	case enqOK:
		// Crossing half the Critical soft cap kicks the overload governor
		// so Shedding can engage before the ring saturates. Past the soft
		// cap the ring is racing toward its hard cap — a flood can cover
		// that distance inside the rate-limit window, so escalation
		// notifies unconditionally.
		if cls == core.ClassCritical && critDepth*2 >= t.opts.QueueCritical {
			t.notifyPressure(critDepth >= t.opts.QueueCritical)
		}
	case enqShed:
		t.ctr.dropped(cls, 1)
	case enqOverflow:
		// Critical hard cap exceeded; treat like a broken pipe so the
		// protocol reacts instead of the caller blocking. The queued
		// frames are lost with the peer.
		t.ctr.queueOverflows.Add(1)
		t.ctr.dropped(cls, 1)
		t.countQueuedDrops(pc)
		t.dropPeer(pc, true)
	}
}

// countQueuedDrops attributes every frame still queued on pc to the drop
// counters (called when the peer is being abandoned).
func (t *TCPTransport) countQueuedDrops(pc *peerConn) {
	perClass, _ := pc.queuedPerClass()
	for c, n := range perClass {
		if n > 0 {
			t.ctr.dropped(core.Class(c), n)
		}
	}
}

// notifyPressure invokes the registered pressure handler, rate-limited so
// a hot Send path cannot spam the governor; force bypasses the rate limit
// for escalations that must reach the governor before the next window.
func (t *TCPTransport) notifyPressure(force bool) {
	now := time.Now().UnixNano()
	last := t.lastPressure.Load()
	if !force && (now-last < int64(10*time.Millisecond) || !t.lastPressure.CompareAndSwap(last, now)) {
		return
	}
	t.mu.Lock()
	h := t.pressureH
	t.mu.Unlock()
	if h != nil {
		h()
	}
}

// SetPressureHandler registers a callback kicked (rate-limited) whenever a
// peer's Critical ring crosses half its soft cap. The live node uses it to
// run an immediate overload evaluation.
func (t *TCPTransport) SetPressureHandler(fn func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pressureH = fn
}

// QueuePressure reports the worst per-peer ring occupancy and the total
// queued bytes across peers, for the overload governor.
func (t *TCPTransport) QueuePressure() QueuePressure {
	t.mu.Lock()
	pcs := make([]*peerConn, 0, len(t.conns))
	for _, pc := range t.conns {
		pcs = append(pcs, pc)
	}
	t.mu.Unlock()
	var out QueuePressure
	for _, pc := range pcs {
		crit, worst, bytes := pc.pressure(t.opts.QueueCritical, t.opts.QueueRepair, t.opts.QueueBackground)
		if crit > out.Critical {
			out.Critical = crit
		}
		if worst > out.Worst {
			out.Worst = worst
		}
		out.QueuedBytes += bytes
	}
	return out
}

// SendDatagram sends one UDP packet; network errors and oversized frames
// are dropped silently, as UDP semantics dictate, but serialization
// failures are counted.
func (t *TCPTransport) SendDatagram(addr string, to core.NodeID, m core.Message) {
	buf, err := wire.Append(nil, t.id, m)
	if err != nil {
		t.encodeError(addr, err)
		return
	}
	if len(buf) > 60000 {
		return
	}
	ua := t.udpAddr(addr)
	if ua == nil {
		return
	}
	_, _ = t.udp.WriteToUDP(buf, ua)
}

// maxUDPAddrs bounds the resolved-address cache: datagrams (RTT pings) also
// go to addresses that never become peers, which no peer drop would evict.
const maxUDPAddrs = 4096

// udpAddr resolves a datagram target once per peer address instead of
// parsing and allocating on every ping and pong; nil if it does not resolve.
func (t *TCPTransport) udpAddr(addr string) *net.UDPAddr {
	t.mu.Lock()
	ua := t.udpAddrs[addr]
	t.mu.Unlock()
	if ua != nil {
		return ua
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil
	}
	t.mu.Lock()
	if len(t.udpAddrs) >= maxUDPAddrs {
		clear(t.udpAddrs)
	}
	t.udpAddrs[addr] = ua
	t.mu.Unlock()
	return ua
}

// peer returns (creating if necessary) the outbound connection state.
func (t *TCPTransport) peer(addr string, to core.NodeID) *peerConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	if pc, ok := t.conns[addr]; ok {
		return pc
	}
	pc := t.newPeerConn(addr, to)
	t.conns[addr] = pc
	t.wg.Add(1)
	go t.writeLoop(pc)
	return pc
}

// writeLoop owns one peer's connection lifecycle: dial (with backoff
// across failures), drain the frame queue onto the connection, and on a
// broken pipe redial (writeFrames has put the unwritten frames back on
// the rings). It exits when the peer is stopped or redial attempts are
// exhausted.
func (t *TCPTransport) writeLoop(pc *peerConn) {
	defer t.wg.Done()
	backoff := t.opts.RedialBackoff
	failures := 0
	hadConn := false
	for {
		conn, err := t.dialPeer(pc)
		if err != nil {
			if errors.Is(err, errPeerStopped) {
				return
			}
			t.ctr.dialErrors.Add(1)
			failures++
			if failures > t.opts.RedialAttempts {
				t.ctr.peersFailed.Add(1)
				t.countQueuedDrops(pc)
				t.dropPeer(pc, true)
				return
			}
			if !t.pause(pc, withJitter(backoff)) {
				return
			}
			backoff *= 2
			if backoff > t.opts.RedialBackoffMax {
				backoff = t.opts.RedialBackoffMax
			}
			continue
		}
		t.ctr.dials.Add(1)
		if hadConn || failures > 0 {
			t.ctr.redials.Add(1)
		}
		if failures > 0 {
			t.ctr.backoffResets.Add(1)
		}
		failures = 0
		backoff = t.opts.RedialBackoff
		hadConn = true
		if !t.writeFrames(pc, conn) {
			return
		}
		// Connection broke; loop redials. Frames still queued survive for
		// the next connection. The short pause keeps a flapping peer from
		// inducing a dial hot-loop.
		if !t.pause(pc, withJitter(backoff)) {
			return
		}
	}
}

// dialPeer dials with the configured timeout, registers the connection,
// and starts its read loop. Inbound frames can arrive on outbound
// connections too.
func (t *TCPTransport) dialPeer(pc *peerConn) (net.Conn, error) {
	select {
	case <-pc.done:
		return nil, errPeerStopped
	default:
	}
	d := net.Dialer{Timeout: t.opts.DialTimeout}
	conn, err := d.Dial("tcp", pc.addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, errPeerStopped
	}
	select {
	case <-pc.done:
		t.mu.Unlock()
		conn.Close()
		return nil, errPeerStopped
	default:
	}
	pc.conn = conn
	t.mu.Unlock()
	t.wg.Add(1)
	go t.readLoop(conn)
	return conn, nil
}

// pause sleeps d or until the peer stops; it reports whether to continue.
func (t *TCPTransport) pause(pc *peerConn, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-pc.done:
		return false
	case <-timer.C:
		return true
	}
}

// withJitter spreads d uniformly over [0.5d, 1.5d) so redial storms from
// many peers decorrelate.
func withJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// dropPeer removes the connection and reports the failure once.
func (t *TCPTransport) dropPeer(pc *peerConn, notify bool) {
	t.mu.Lock()
	cur, ok := t.conns[pc.addr]
	if ok && cur == pc {
		delete(t.conns, pc.addr)
		delete(t.udpAddrs, pc.addr)
	}
	closed := t.closed
	fail := t.failure
	conn := pc.conn
	t.mu.Unlock()
	pc.stop()
	if conn != nil {
		conn.Close()
	}
	if ok && cur == pc && notify && !closed && fail != nil {
		fail(pc.to)
	}
}

// DropConnections abruptly closes every open TCP connection (outbound and
// inbound) without touching peer state — simulating a transient network
// reset for chaos tests. Queued and in-flight frames are resent after the
// automatic backoff redial; no failure is reported. It returns how many
// connections were cut.
func (t *TCPTransport) DropConnections() int {
	t.mu.Lock()
	var conns []net.Conn
	for _, pc := range t.conns {
		if pc.conn != nil {
			conns = append(conns, pc.conn)
		}
	}
	for c := range t.inbound {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return len(conns)
}

// reapLoop periodically stops outbound connections that have carried no
// Send for IdleTimeout. Reaping is silent: the peer is not reported down,
// and the next Send toward it simply redials.
func (t *TCPTransport) reapLoop() {
	defer t.wg.Done()
	period := t.opts.IdleTimeout / 4
	if period < time.Second {
		period = time.Second
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-t.stopReaper:
			return
		case <-ticker.C:
		}
		cutoff := time.Now().Add(-t.opts.IdleTimeout).UnixNano()
		t.mu.Lock()
		var idle []*peerConn
		for _, pc := range t.conns {
			if _, queued := pc.queuedPerClass(); pc.lastUsed.Load() < cutoff && queued == 0 {
				idle = append(idle, pc)
			}
		}
		t.mu.Unlock()
		for _, pc := range idle {
			t.ctr.idleReaped.Add(1)
			t.dropPeer(pc, false)
		}
	}
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// Close shuts the listeners and all connections down and waits for the
// transport's goroutines to exit.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	type closing struct {
		pc   *peerConn
		conn net.Conn
	}
	conns := make([]closing, 0, len(t.conns))
	for _, pc := range t.conns {
		conns = append(conns, closing{pc: pc, conn: pc.conn})
	}
	t.conns = make(map[string]*peerConn)
	ins := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		ins = append(ins, c)
	}
	t.mu.Unlock()

	close(t.stopReaper)
	t.ln.Close()
	t.udp.Close()
	for _, c := range ins {
		c.Close()
	}
	for _, c := range conns {
		c.pc.stop()
		if c.conn != nil {
			c.conn.Close()
		}
	}
	t.wg.Wait()
	return nil
}
