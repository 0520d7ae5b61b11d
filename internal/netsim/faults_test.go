package netsim

import (
	"testing"
	"time"

	"gocast/internal/core"
	"gocast/internal/fault"
)

// fastTestConfig returns protocol timing that converges quickly in
// virtual minutes, shared by the fault and coopcast tests.
func fastTestConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.SyncInterval = 5 * time.Second
	cfg.HeartbeatPeriod = 5 * time.Second
	cfg.RootTimeout = 15 * time.Second
	return cfg
}

func buildFaultTestCluster(t *testing.T, n int, seed int64) *Cluster {
	t.Helper()
	cfg := fastTestConfig()
	c := New(Options{Nodes: n, Seed: seed, Config: cfg})
	c.BootstrapMembership(cfg.MemberViewSize / 2)
	c.WireRandom(cfg.TargetDegree() / 2)
	c.Start(0)
	c.Run(60 * time.Second)
	return c
}

// TestFaultPartitionBlocksAndHeals is the end-to-end check of SetFaults
// (the judge itself is tested in internal/fault): it cuts the cluster in
// two, checks that messages cannot cross, clears the partition, and checks
// sync repairs the backlog.
func TestFaultPartitionBlocksAndHeals(t *testing.T) {
	const n = 24
	c := buildFaultTestCluster(t, n, 11)

	left := make([]int, 0, n/2)
	right := make([]int, 0, n/2)
	for i := 0; i < n; i++ {
		if i < n/2 {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	c.SetFaults(&fault.Spec{Seed: 1, Partition: [][]int{left, right}})
	c.Inject(0, nil)
	c.Run(30 * time.Second)
	if got := c.FaultStats().Blocked; got == 0 {
		t.Fatalf("partition blocked no traffic")
	}
	// The message must not have crossed to the right side.
	counts := c.ReceiveCounts()
	if counts[0] > n/2 {
		t.Fatalf("message crossed the partition: %d receivers", counts[0])
	}
	c.SetFaults(nil)
	c.Run(2 * time.Minute)
	if v := c.AtomicityViolations(30 * time.Second); v != 0 {
		t.Fatalf("after heal: %d atomicity violations", v)
	}
}
