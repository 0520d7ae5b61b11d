package live

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gocast/internal/core"
)

// runFloodOverload drives the end-to-end overload scenario over real TCP:
// a root publisher floods large payloads at a receiver whose OnDeliver is
// deliberately slow, so backpressure cascades receiver mailbox -> kernel
// socket buffers -> publisher Critical ring -> overload governor. The
// publisher must travel Healthy -> Shedding -> Healthy, reject publishes
// with ErrOverloaded while Shedding, never drop a peer or a Critical
// frame, and deliver every admitted message.
func runFloodOverload(t *testing.T, floodFor time.Duration) {
	t.Helper()
	cfg := FastConfig()
	// The flood starves the receiver's event loop for hundreds of
	// milliseconds at a time, which delays its gossip keepalives.
	// FastConfig's 1s NeighborTimeout would misread that as death and
	// detach the tree child mid-flood — the exact failure mode overload
	// protection exists to avoid — so give liveness detection room: the
	// test asserts zero PeerDowns instead.
	cfg.HeartbeatPeriod = 5 * time.Second
	cfg.NeighborTimeout = 30 * time.Second
	cfg.RootTimeout = 60 * time.Second

	ptr := mustTCP(t, 0, TCPOptions{
		RedialBackoff: 20 * time.Millisecond,
		IdleTimeout:   -1,
		QueueCritical: 64, // small soft cap so ring pressure builds fast
	})
	rtr := mustTCP(t, 1, fastTCPOptions())

	quiet := func(string, ...any) {}
	pub := NewNode(NodeOptions{
		ID: 0, Config: cfg, Transport: ptr, Seed: 1,
		Overload: OverloadOptions{EvalInterval: 20 * time.Millisecond, Logf: quiet},
	})
	defer pub.Close()

	var mu sync.Mutex
	got := make(map[core.MessageID]bool)
	recv := NewNode(NodeOptions{
		ID: 1, Config: cfg, Transport: rtr, Seed: 2,
		Overload: OverloadOptions{MailboxCritical: 256, Logf: quiet},
		OnDeliver: func(id core.MessageID, _ []byte, _ time.Duration) {
			mu.Lock()
			got[id] = true
			mu.Unlock()
			time.Sleep(2 * time.Millisecond) // the slow consumer
		},
	})
	defer recv.Close()

	pub.BecomeRoot()
	pub.SetLandmarks([]core.Entry{pub.Entry()})
	recv.Join(pub.Entry())
	// A joiner that misses the first tree wave gets its parent from the
	// next heartbeat, HeartbeatPeriod (5s here) later: the wait spans three.
	waitFor(t, 15*time.Second, "receiver joined the tree", func() bool {
		return recv.Parent() == 0
	})

	// Flood: publish as fast as the node admits — far beyond the
	// receiver's sustainable drain rate — for at least floodFor and until
	// Shedding has been observed.
	payload := make([]byte, 32<<10)
	var admitted []core.MessageID
	var rejected int64
	start := time.Now()
	for time.Since(start) < floodFor || rejected == 0 {
		if time.Since(start) > floodFor+20*time.Second {
			t.Fatalf("publisher never entered Shedding (overload=%v stats=%v)",
				pub.Overload(), pub.OverloadStats())
		}
		id, err := pub.Publish(payload)
		switch {
		case err == nil:
			admitted = append(admitted, id)
		case errors.Is(err, ErrOverloaded):
			rejected++
			time.Sleep(time.Millisecond) // the producer's backoff
		default:
			t.Fatalf("Publish: %v", err)
		}
	}

	// Recovery: once the flood stops, the queues drain and the governor
	// walks back to Healthy after its hysteresis window.
	waitFor(t, 30*time.Second, "publisher recovered to Healthy", func() bool {
		return pub.Overload() == core.OverloadHealthy
	})

	// Atomic delivery: every admitted message reaches the receiver; the
	// shed ones were rejected at the source, never silently dropped.
	waitFor(t, 30*time.Second, "all admitted messages delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= len(admitted)
	})
	mu.Lock()
	for _, id := range admitted {
		if !got[id] {
			t.Errorf("admitted message %s never delivered", id)
		}
	}
	mu.Unlock()

	if pd := pub.Stats().PeerDowns; pd != 0 {
		t.Errorf("publisher declared %d peers down during the flood, want 0", pd)
	}
	ts := ptr.Stats()
	if ts[CtrQueueOverflow] != 0 {
		t.Errorf("tcp_queue_overflows = %d, want 0 (no peer may be dropped for queue pressure)", ts[CtrQueueOverflow])
	}
	if ts[CtrDroppedCritical] != 0 {
		t.Errorf("tcp_frames_dropped_critical = %d, want 0", ts[CtrDroppedCritical])
	}
	for _, n := range []*Node{pub, recv} {
		if shed := n.OverloadStats()["shed_critical"]; shed != 0 {
			t.Errorf("node %d shed %d Critical mailbox units, want 0", n.ID(), shed)
		}
	}
	ov := pub.OverloadStats()
	if ov["publish_rejected"] != rejected {
		t.Errorf("gocast_overload_publish_rejected_total = %d, want %d", ov["publish_rejected"], rejected)
	}
	if ov["transitions"] < 2 {
		t.Errorf("gocast_overload_transitions_total = %d, want >= 2 (up and back down)", ov["transitions"])
	}
	if ov["state"] != int64(core.OverloadHealthy) {
		t.Errorf("gocast_overload_state = %d, want %d (healthy)", ov["state"], int64(core.OverloadHealthy))
	}
	t.Logf("flood: admitted=%d rejected=%d transitions=%d tcp=%v",
		len(admitted), rejected, ov["transitions"],
		map[string]int64{"overflow": ts[CtrQueueOverflow], "dropped_critical": ts[CtrDroppedCritical]})
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOverloadFloodSmoke is the CI-sized flood: long enough to force the
// full Healthy -> Shedding -> Healthy round trip, short enough for -race.
func TestOverloadFloodSmoke(t *testing.T) {
	runFloodOverload(t, 300*time.Millisecond)
}

// TestOverloadFloodSoak sustains the flood an order of magnitude longer,
// exercising store eviction churn and repeated governor evaluations under
// pressure. Skipped with -short.
func TestOverloadFloodSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("full flood soak skipped with -short")
	}
	runFloodOverload(t, 8*time.Second)
}
