package live

import (
	"sync"
	"testing"
	"time"

	"gocast/internal/core"
)

func TestMemNetworkPartitionAndHeal(t *testing.T) {
	net := NewMemNetwork(time.Millisecond, 2)
	a := net.Endpoint("a")
	a.SetFrom(1)
	b := net.Endpoint("b")
	b.SetFrom(2)
	var (
		mu  sync.Mutex
		got int
	)
	b.SetHandlers(func(core.NodeID, core.Message) {
		mu.Lock()
		got++
		mu.Unlock()
	}, nil)
	failures := make(chan core.NodeID, 8)
	a.SetHandlers(func(core.NodeID, core.Message) {}, func(peer core.NodeID) {
		failures <- peer
	})

	net.Partition("b")
	a.Send("b", 2, &core.TreeParent{})
	select {
	case <-failures:
	case <-time.After(5 * time.Second):
		t.Fatalf("partitioned target did not trigger failure")
	}

	net.Heal(b)
	a.Send("b", 2, &core.TreeParent{})
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := got
		mu.Unlock()
		if n == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("healed endpoint unreachable")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMemNetworkCustomLatency(t *testing.T) {
	net := NewMemNetwork(0, 3)
	net.SetLatency(func(from, to string) time.Duration { return 80 * time.Millisecond })
	a := net.Endpoint("a")
	a.SetFrom(1)
	b := net.Endpoint("b")
	b.SetFrom(2)
	done := make(chan time.Time, 1)
	b.SetHandlers(func(core.NodeID, core.Message) { done <- time.Now() }, nil)
	a.SetHandlers(func(core.NodeID, core.Message) {}, nil)
	start := time.Now()
	a.Send("b", 2, &core.TreeParent{})
	select {
	case at := <-done:
		if d := at.Sub(start); d < 70*time.Millisecond {
			t.Fatalf("latency function ignored: delivered after %v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("message never delivered")
	}
}

func TestClosedEndpointSendsNothing(t *testing.T) {
	net := NewMemNetwork(0, 4)
	a := net.Endpoint("a")
	a.SetFrom(1)
	b := net.Endpoint("b")
	b.SetFrom(2)
	var (
		mu  sync.Mutex
		got int
	)
	b.SetHandlers(func(core.NodeID, core.Message) {
		mu.Lock()
		got++
		mu.Unlock()
	}, nil)
	a.Close()
	a.Send("b", 2, &core.TreeParent{})
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if got != 0 {
		t.Fatalf("closed endpoint delivered %d messages", got)
	}
}
