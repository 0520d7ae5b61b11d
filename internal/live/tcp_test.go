package live

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gocast/internal/core"
)

// fastTCPOptions returns resilience tuning suitable for tests: quick
// redials, no idle reaping.
func fastTCPOptions() TCPOptions {
	return TCPOptions{
		DialTimeout:   time.Second,
		RedialBackoff: 20 * time.Millisecond,
		IdleTimeout:   -1,
	}
}

func mustTCP(t *testing.T, id core.NodeID, opts TCPOptions) *TCPTransport {
	t.Helper()
	tr, err := NewTCPTransportWithOptions(id, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return tr
}

// TestTCPRedialRestoresLinkAfterCut cuts every open connection and checks
// the next send transparently re-establishes the link: delivery succeeds,
// the redial counters move, and no failure is reported to the protocol.
func TestTCPRedialRestoresLinkAfterCut(t *testing.T) {
	a := mustTCP(t, 1, fastTCPOptions())
	defer a.Close()
	b := mustTCP(t, 2, fastTCPOptions())
	defer b.Close()

	var got, failed atomic.Int64
	b.SetHandlers(func(core.NodeID, core.Message) { got.Add(1) }, nil)
	a.SetHandlers(func(core.NodeID, core.Message) {}, func(core.NodeID) { failed.Add(1) })

	a.Send(b.Addr(), 2, &core.TreeParent{On: true})
	waitCount(t, &got, 1, "initial send")

	if n := a.DropConnections(); n == 0 {
		t.Fatalf("no connections to cut")
	}
	a.Send(b.Addr(), 2, &core.TreeParent{On: true})
	waitCount(t, &got, 2, "send after the connection was cut")

	s := a.Stats()
	if s[CtrRedials] < 1 {
		t.Errorf("tcp_redials = %d, want >= 1", s[CtrRedials])
	}
	if s[CtrWriteErrors] < 1 {
		t.Errorf("tcp_write_errors = %d, want >= 1", s[CtrWriteErrors])
	}
	if s[CtrFramesRequeue] < 1 {
		t.Errorf("tcp_frames_requeued = %d, want >= 1", s[CtrFramesRequeue])
	}
	if failed.Load() != 0 {
		t.Errorf("transient connection cut reported as a peer failure")
	}
}

// TestTCPBurstAcrossCuts sends a burst of sequence-numbered frames while
// the connection is cut under it several times. The frames a failed write
// did not finish are resent on the next connection: everything arrives
// exactly once and in order, every frame is reported written exactly once,
// and the protocol hears of no peer failure.
func TestTCPBurstAcrossCuts(t *testing.T) {
	opts := fastTCPOptions()
	// The receiver reads each connection on its own goroutine; a redial
	// pause well above scheduling noise keeps the old connection's tail
	// ahead of the new connection's head.
	opts.RedialBackoff = 100 * time.Millisecond
	a := mustTCP(t, 1, opts)
	defer a.Close()
	b := mustTCP(t, 2, fastTCPOptions())
	defer b.Close()

	var (
		mu     sync.Mutex
		seqs   []uint32
		got    atomic.Int64
		failed atomic.Int64
	)
	b.SetHandlers(func(_ core.NodeID, m core.Message) {
		mu.Lock()
		seqs = append(seqs, m.(*core.Multicast).ID.Seq)
		mu.Unlock()
		got.Add(1)
	}, nil)
	a.SetHandlers(func(core.NodeID, core.Message) {}, func(core.NodeID) { failed.Add(1) })

	const burst = 300
	payload := make([]byte, 512)
	send := func(seq uint32) {
		a.Send(b.Addr(), 2, &core.Multicast{ID: core.MessageID{Source: 1, Seq: seq}, Payload: payload, ViaTree: true})
	}
	send(0)
	waitCount(t, &got, 1, "first frame (connection up)")
	for seq := uint32(1); seq <= burst; seq++ {
		if seq%100 == 50 {
			// The first cut lands on a busy writer; the later ones wait for
			// the redial, so that there is a connection to cut. From a cut
			// on, the writer's next write fails with the rest of the burst
			// queuing behind it. On loopback a close still delivers what
			// the kernel had accepted, so nothing reported written is lost.
			if seq > 50 {
				waitCount(t, &got, int64(seq), "frames sent before the cut")
			}
			if a.DropConnections() == 0 {
				t.Fatalf("no connection to cut before frame %d", seq)
			}
		}
		send(seq)
	}
	waitCount(t, &got, burst+1, "burst across the cuts")

	mu.Lock()
	defer mu.Unlock()
	for i, seq := range seqs {
		if seq != uint32(i) {
			t.Fatalf("frame %d of the stream carries seq %d: reordered, duplicated or lost (stream %v)", i, seq, seqs)
		}
	}
	s := a.Stats()
	if s[CtrFramesWritten] != burst+1 {
		t.Errorf("tcp_frames_written = %d for %d frames: a frame reported written was resent", s[CtrFramesWritten], burst+1)
	}
	if s[CtrWriteErrors] < 1 || s[CtrFramesRequeue] < 1 || s[CtrRedials] < 1 {
		t.Errorf("write_errors=%d frames_requeued=%d redials=%d, want each >= 1", s[CtrWriteErrors], s[CtrFramesRequeue], s[CtrRedials])
	}
	if s[CtrFramesDropped] != 0 || failed.Load() != 0 {
		t.Errorf("frames_dropped = %d, peer failures = %d, want 0/0", s[CtrFramesDropped], failed.Load())
	}
}

// TestTCPRedialExhaustionReportsPeerDown sends toward a dead address and
// checks the failure is reported only after the configured attempts.
func TestTCPRedialExhaustionReportsPeerDown(t *testing.T) {
	opts := fastTCPOptions()
	opts.RedialAttempts = 2
	a := mustTCP(t, 1, opts)
	defer a.Close()

	failures := make(chan core.NodeID, 1)
	a.SetHandlers(func(core.NodeID, core.Message) {}, func(p core.NodeID) { failures <- p })

	// A port that was just freed: connection refused, instantly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dead := ln.Addr().String()
	ln.Close()

	a.Send(dead, 9, &core.TreeParent{})
	select {
	case p := <-failures:
		if p != 9 {
			t.Fatalf("failure reported for peer %d, want 9", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("peer never reported down")
	}
	s := a.Stats()
	if s[CtrDialErrors] != 3 { // initial attempt + RedialAttempts retries
		t.Errorf("tcp_dial_errors = %d, want 3", s[CtrDialErrors])
	}
	if s[CtrPeersFailed] != 1 {
		t.Errorf("tcp_peers_failed = %d, want 1", s[CtrPeersFailed])
	}
	if s[CtrFramesDropped] < 1 {
		t.Errorf("tcp_frames_dropped = %d, want >= 1", s[CtrFramesDropped])
	}
}

// TestTCPWriteDeadlineUnwedgesStalledPeer writes at a sink that accepts
// but never reads; once the kernel buffers fill, only the write deadline
// can unblock the writer goroutine.
func TestTCPWriteDeadlineUnwedgesStalledPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	defer func() {
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	}()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c) // never read from it
			mu.Unlock()
		}
	}()

	opts := fastTCPOptions()
	opts.WriteTimeout = 200 * time.Millisecond
	a := mustTCP(t, 1, opts)
	defer a.Close()
	a.SetHandlers(func(core.NodeID, core.Message) {}, nil)

	payload := make([]byte, 512*1024)
	for i := 0; i < 16; i++ { // ~8 MB, far beyond loopback socket buffers
		a.Send(ln.Addr().String(), 9, &core.Multicast{ID: core.MessageID{Source: 1, Seq: uint32(i)}, Payload: payload})
	}
	deadline := time.Now().Add(10 * time.Second)
	for a.Stats()[CtrWriteErrors] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("write deadline never fired against a stalled peer")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTCPIdleConnectionsReaped checks inactivity reaping is silent and the
// next send transparently redials.
func TestTCPIdleConnectionsReaped(t *testing.T) {
	opts := fastTCPOptions()
	opts.IdleTimeout = 300 * time.Millisecond
	a := mustTCP(t, 1, opts)
	defer a.Close()
	b := mustTCP(t, 2, fastTCPOptions())
	defer b.Close()

	var got, failed atomic.Int64
	b.SetHandlers(func(core.NodeID, core.Message) { got.Add(1) }, nil)
	a.SetHandlers(func(core.NodeID, core.Message) {}, func(core.NodeID) { failed.Add(1) })

	a.Send(b.Addr(), 2, &core.TreeParent{})
	waitCount(t, &got, 1, "initial send")

	deadline := time.Now().Add(10 * time.Second)
	for a.Stats()[CtrIdleReaped] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle connection never reaped")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if failed.Load() != 0 {
		t.Errorf("idle reap reported a peer failure")
	}
	a.Send(b.Addr(), 2, &core.TreeParent{})
	waitCount(t, &got, 2, "send after idle reap")
}

// TestTCPEncodeErrorsCountedAndLoggedOnce checks satellite behavior: a
// frame that cannot serialize is counted every time but logged only once
// per peer.
func TestTCPEncodeErrorsCountedAndLoggedOnce(t *testing.T) {
	var logs atomic.Int64
	opts := fastTCPOptions()
	opts.Logf = func(string, ...any) { logs.Add(1) }
	a := mustTCP(t, 1, opts)
	defer a.Close()
	a.SetHandlers(func(core.NodeID, core.Message) {}, nil)

	bad := &core.JoinRequest{From: core.Entry{ID: 3, Addr: strings.Repeat("x", 70000)}}
	a.Send("127.0.0.1:1", 3, bad)
	a.Send("127.0.0.1:1", 3, bad)
	a.SendDatagram("127.0.0.1:1", 3, bad)
	if got := a.Stats()[CtrEncodeErrors]; got != 3 {
		t.Errorf("tcp_encode_errors = %d, want 3", got)
	}
	if got := logs.Load(); got != 1 {
		t.Errorf("encode error logged %d times, want once per peer", got)
	}
	// A different peer gets its own log line.
	a.Send("127.0.0.1:2", 4, bad)
	if got := logs.Load(); got != 2 {
		t.Errorf("second peer's encode error not logged (logs %d)", got)
	}
}

// deadTCPAddr returns a localhost address that refuses connections: a
// listener is opened to reserve the port, then closed.
func deadTCPAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestTCPQueueClassingUnderFlood pins the per-peer overflow semantics: a
// Background flood toward an unreachable peer sheds Background (and then
// Repair) frames while Critical frames keep being admitted into the
// elastic ring — the peer is never dropped — and every drop is attributed
// to its class. Only pushing Critical past its hard cap overflows and
// drops the peer.
func TestTCPQueueClassingUnderFlood(t *testing.T) {
	tr := mustTCP(t, 1, TCPOptions{
		DialTimeout:       200 * time.Millisecond,
		RedialAttempts:    1000,
		RedialBackoff:     time.Hour, // park the writer after the first refused dial
		RedialBackoffMax:  time.Hour,
		IdleTimeout:       -1,
		QueueCritical:     8,
		QueueCriticalHard: 32,
		QueueRepair:       4,
		QueueBackground:   4,
		Logf:              t.Logf,
	})
	defer tr.Close()
	dead := deadTCPAddr(t)

	for i := 0; i < 100; i++ {
		tr.Send(dead, 2, &core.SyncRequest{}) // Background
	}
	for i := 0; i < 50; i++ {
		tr.Send(dead, 2, &core.PullRequest{}) // Repair
	}
	for i := 0; i < 20; i++ {
		tr.Send(dead, 2, &core.Gossip{}) // Critical, past the soft cap of 8
	}

	st := tr.Stats()
	if st[CtrQueueOverflow] != 0 {
		t.Fatalf("queue_overflows = %d during class flood, want 0 (peer must survive)", st[CtrQueueOverflow])
	}
	if st[CtrDroppedCritical] != 0 {
		t.Errorf("dropped_critical = %d, want 0", st[CtrDroppedCritical])
	}
	if st[CtrDroppedBackground] != 96 {
		t.Errorf("dropped_background = %d, want 96", st[CtrDroppedBackground])
	}
	if st[CtrDroppedRepair] != 46 {
		t.Errorf("dropped_repair = %d, want 46", st[CtrDroppedRepair])
	}
	if st[CtrFramesDropped] != 96+46 {
		t.Errorf("frames_dropped = %d, want %d", st[CtrFramesDropped], 96+46)
	}

	tr.mu.Lock()
	pc := tr.conns[dead]
	tr.mu.Unlock()
	if pc == nil {
		t.Fatal("peer was dropped by the class flood")
	}
	per, _ := pc.queuedPerClass()
	if per[core.ClassCritical] != 20 || per[core.ClassRepair] != 4 || per[core.ClassBackground] != 4 {
		t.Fatalf("queued per class = %v, want [20 4 4]", per)
	}

	// The governor view reflects the elastic Critical ring: > 1.0 of the
	// soft cap but below the hard cap.
	qp := tr.QueuePressure()
	if qp.Critical <= 1 || qp.QueuedBytes == 0 {
		t.Fatalf("QueuePressure = %+v, want Critical > 1 with queued bytes", qp)
	}

	// Pushing Critical past the hard cap (32) is a real overflow: the
	// peer is dropped and every queued frame is attributed.
	for i := 0; i < 13; i++ {
		tr.Send(dead, 2, &core.Gossip{})
	}
	st = tr.Stats()
	if st[CtrQueueOverflow] != 1 {
		t.Fatalf("queue_overflows = %d after hard-cap breach, want 1", st[CtrQueueOverflow])
	}
	// 1 overflowed frame + 32 queued Critical frames.
	if st[CtrDroppedCritical] != 33 {
		t.Errorf("dropped_critical = %d, want 33", st[CtrDroppedCritical])
	}
	if st[CtrDroppedRepair] != 46+4 || st[CtrDroppedBackground] != 96+4 {
		t.Errorf("post-overflow drops repair=%d background=%d, want 50/100",
			st[CtrDroppedRepair], st[CtrDroppedBackground])
	}
}

// TestTCPSlowPeerPausesBackground pins the flow-control hysteresis: a
// peer whose write-latency EWMA crosses SlowWriteThreshold is paused —
// Background enqueues shed immediately, Repair sheds above half its ring —
// and resumes only once the EWMA falls below half the threshold.
func TestTCPSlowPeerPausesBackground(t *testing.T) {
	tr := mustTCP(t, 1, TCPOptions{
		DialTimeout:        200 * time.Millisecond,
		RedialAttempts:     1000,
		RedialBackoff:      time.Hour,
		RedialBackoffMax:   time.Hour,
		IdleTimeout:        -1,
		SlowWriteThreshold: 100 * time.Millisecond,
		QueueRepair:        8,
		Logf:               t.Logf,
	})
	defer tr.Close()
	dead := deadTCPAddr(t)

	tr.Send(dead, 2, &core.Gossip{}) // materialize the peer
	tr.mu.Lock()
	pc := tr.conns[dead]
	tr.mu.Unlock()

	// Drive the EWMA over the threshold: each 800ms sample adds 100ms.
	for i := 0; i < 16 && !pc.slow.Load(); i++ {
		tr.noteWriteLatency(pc, 800*time.Millisecond)
	}
	if !pc.slow.Load() {
		t.Fatal("peer not marked slow after sustained slow writes")
	}
	if got := tr.Stats()[CtrPeerPauses]; got != 1 {
		t.Fatalf("peer_pauses = %d, want 1", got)
	}

	// Background sheds outright while paused; Repair still admits below
	// half its ring.
	tr.Send(dead, 2, &core.SyncRequest{})
	if got := tr.Stats()[CtrDroppedBackground]; got != 1 {
		t.Fatalf("dropped_background = %d while slow, want 1", got)
	}
	for i := 0; i < 8; i++ {
		tr.Send(dead, 2, &core.PullRequest{})
	}
	if got := tr.Stats()[CtrDroppedRepair]; got != 4 {
		t.Fatalf("dropped_repair = %d while slow, want 4 (half ring admitted)", got)
	}

	// Fast writes recover the peer only after the EWMA decays below half
	// the threshold.
	for i := 0; i < 64 && pc.slow.Load(); i++ {
		tr.noteWriteLatency(pc, time.Millisecond)
	}
	if pc.slow.Load() {
		t.Fatal("peer did not resume after EWMA decayed")
	}
	if got := tr.Stats()[CtrPeerResumes]; got != 1 {
		t.Fatalf("peer_resumes = %d, want 1", got)
	}
	tr.Send(dead, 2, &core.SyncRequest{})
	if got := tr.Stats()[CtrDroppedBackground]; got != 1 {
		t.Fatalf("dropped_background = %d after resume, want still 1", got)
	}
}

// TestTCPDatagramAddrCached checks SendDatagram resolves a peer's address
// once, reuses it, and forgets it when the peer is dropped.
func TestTCPDatagramAddrCached(t *testing.T) {
	a := mustTCP(t, 1, fastTCPOptions())
	defer a.Close()
	b := mustTCP(t, 2, fastTCPOptions())
	defer b.Close()
	var got atomic.Int64
	b.SetHandlers(func(core.NodeID, core.Message) { got.Add(1) }, nil)
	a.SetHandlers(func(core.NodeID, core.Message) {}, nil)

	cached := func() *net.UDPAddr {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.udpAddrs[b.Addr()]
	}
	sendUntilCount(t, &got, 1, func() { a.SendDatagram(b.Addr(), 2, &core.Ping{Nonce: 1}) })
	first := cached()
	if first == nil {
		t.Fatal("address not cached after a datagram")
	}
	sendUntilCount(t, &got, 2, func() { a.SendDatagram(b.Addr(), 2, &core.Ping{Nonce: 2}) })
	if cached() != first {
		t.Fatal("second datagram resolved the address again")
	}
	a.SendDatagram("not an address", 3, &core.Ping{})
	a.dropPeer(a.peer(b.Addr(), 2), false)
	if cached() != nil {
		t.Fatal("cached address outlived the peer")
	}
}
