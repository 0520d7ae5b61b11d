package live

import (
	"sync/atomic"
	"testing"
	"time"

	"gocast/internal/core"
	"gocast/internal/fault"
)

// --- shared conformance suite over both transports ----------------------

// The acceptance criterion: the fault layer behaves identically whether it
// wraps MemTransport or TCPTransport. One scenario, two factories.
func testFaultTransportConformance(t *testing.T, mk func(t *testing.T, ctl *FaultController) (a, b Transport, cleanup func())) {
	t.Helper()
	ctl := NewFaultController()
	a, b, cleanup := mk(t, ctl)
	defer cleanup()

	var rel, dg, back atomic.Int64
	b.SetHandlers(func(from core.NodeID, m core.Message) {
		switch m.(type) {
		case *core.TreeParent:
			rel.Add(1)
		case *core.Ping:
			dg.Add(1)
		}
	}, nil)
	a.SetHandlers(func(core.NodeID, core.Message) { back.Add(1) }, nil)

	relMsg := &core.TreeParent{On: true}
	dgMsg := &core.Ping{From: core.Entry{ID: 1, Addr: a.Addr()}, Nonce: 1}

	// 1. Clean fabric: both channels deliver.
	a.Send(b.Addr(), 2, relMsg)
	waitCount(t, &rel, 1, "reliable send through a clean fault layer")
	sendUntilCount(t, &dg, 1, func() { a.SendDatagram(b.Addr(), 2, dgMsg) })

	// 2. Directed full loss 1->2: both channels stop that way, the
	// reverse direction is unaffected.
	ctl.Set(&fault.Spec{Seed: 42, Rules: []fault.Link{{From: fault.Range{Lo: 1, Hi: 2}, To: fault.Range{Lo: 2, Hi: 3}, Loss: 1}}})
	relBase, dgBase := rel.Load(), dg.Load()
	for i := 0; i < 10; i++ {
		a.SendDatagram(b.Addr(), 2, dgMsg)
	}
	a.Send(b.Addr(), 2, relMsg)
	b.Send(a.Addr(), 1, relMsg)
	waitCount(t, &back, 1, "reverse reliable send during one-way loss")
	time.Sleep(150 * time.Millisecond)
	if r, d := rel.Load()-relBase, dg.Load()-dgBase; r != 0 || d != 0 {
		t.Errorf("sends leaked through a one-way Loss=1 rule: %d reliable, %d datagrams", r, d)
	}

	// 3. Partition: reliable sends blackholed silently.
	ctl.Set(&fault.Spec{Partition: [][]int{{1}, {2}}})
	a.Send(b.Addr(), 2, relMsg)
	time.Sleep(250 * time.Millisecond)
	if got := rel.Load(); got != relBase {
		t.Errorf("reliable send crossed a partition (count %d)", got)
	}
	if ctl.Counters()["fault_blocked"] == 0 {
		t.Errorf("partition block not counted")
	}

	// 4. Heal: traffic flows again.
	ctl.Set(nil)
	a.Send(b.Addr(), 2, relMsg)
	waitCount(t, &rel, relBase+1, "reliable send after heal")

	// 5. Slow link: a send arrives, but no sooner than the extra delay.
	ctl.Set(&fault.Spec{Rules: []fault.Link{{Extra: 100 * time.Millisecond}}})
	sent := time.Now()
	a.Send(b.Addr(), 2, relMsg)
	waitCount(t, &rel, relBase+2, "delayed reliable send")
	if d := time.Since(sent); d < 100*time.Millisecond {
		t.Errorf("slow-link send arrived after %v, want >= 100ms", d)
	}

	// 6. The wrapper surfaces the controller's counters through Stats.
	if ft, ok := a.(*FaultTransport); ok {
		if ft.Stats()["fault_delayed"] == 0 {
			t.Errorf("FaultTransport.Stats missing fault counters")
		}
	} else {
		t.Errorf("factory did not return a *FaultTransport")
	}
}

func TestFaultTransportOverMem(t *testing.T) {
	testFaultTransportConformance(t, func(t *testing.T, ctl *FaultController) (Transport, Transport, func()) {
		net := NewMemNetwork(0, 1)
		ea := net.Endpoint("a")
		ea.SetFrom(1)
		eb := net.Endpoint("b")
		eb.SetFrom(2)
		return ctl.Wrap(1, ea), ctl.Wrap(2, eb), func() {
			ea.Close()
			eb.Close()
		}
	})
}

func TestFaultTransportOverTCP(t *testing.T) {
	testFaultTransportConformance(t, func(t *testing.T, ctl *FaultController) (Transport, Transport, func()) {
		ta, err := NewTCPTransport(1, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen a: %v", err)
		}
		tb, err := NewTCPTransport(2, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen b: %v", err)
		}
		return ctl.Wrap(1, ta), ctl.Wrap(2, tb), func() {
			ta.Close()
			tb.Close()
		}
	})
}

// waitCount polls until the counter reaches at least want.
func waitCount(t *testing.T, c *atomic.Int64, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: count %d, want >= %d", what, c.Load(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sendUntilCount retries a lossy send (e.g. UDP) until the counter moves.
func sendUntilCount(t *testing.T, c *atomic.Int64, want int64, send func()) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("datagram never arrived (count %d, want >= %d)", c.Load(), want)
		}
		send()
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFaultBandwidthCapConformance sends a burst of sized frames through a
// capped FaultTransport fabric (the end-to-end analogue of the slow-link
// conformance) and checks the arrival spread matches the serialization
// time the cap implies.
func TestFaultBandwidthCapConformance(t *testing.T) {
	ctl := NewFaultController()
	net := NewMemNetwork(0, 1)
	ea := net.Endpoint("a")
	ea.SetFrom(1)
	eb := net.Endpoint("b")
	eb.SetFrom(2)
	a, b := ctl.Wrap(1, ea), ctl.Wrap(2, eb)
	defer ea.Close()
	defer eb.Close()

	var got atomic.Int64
	var lastArrival atomic.Int64
	start := time.Now()
	b.SetHandlers(func(from core.NodeID, m core.Message) {
		got.Add(1)
		lastArrival.Store(int64(time.Since(start)))
	}, nil)
	a.SetHandlers(func(core.NodeID, core.Message) {}, nil)

	msg := &core.Multicast{ID: core.MessageID{Source: 1, Seq: 1}, Payload: make([]byte, 1000)}
	rate := int64(10 * msg.WireSize()) // the link carries 10 frames/s
	ctl.Set(&fault.Spec{Rules: []fault.Link{{From: fault.Range{Lo: 1, Hi: 2}, To: fault.Range{Lo: 2, Hi: 3}, BytesPerSec: rate}}})

	const frames = 5
	for i := 0; i < frames; i++ {
		a.Send(b.Addr(), 2, msg)
	}
	deadline := time.After(5 * time.Second)
	for got.Load() < frames {
		select {
		case <-deadline:
			t.Fatalf("only %d/%d frames arrived through the capped link", got.Load(), frames)
		case <-time.After(10 * time.Millisecond):
		}
	}
	// 5 frames at 10 frames/s serialize over ~500ms; allow generous slack
	// below but require well over half the nominal spread.
	if spread := time.Duration(lastArrival.Load()); spread < 300*time.Millisecond {
		t.Errorf("arrival spread %v, want >= 300ms for a %d B/s cap", spread, rate)
	}
	if ctl.Counters()["fault_throttled"] == 0 {
		t.Errorf("fault_throttled not counted on the capped fabric")
	}
}
