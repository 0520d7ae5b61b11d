package netsim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"gocast/internal/core"
	"gocast/internal/dtrace"
	"gocast/internal/latency"
)

func TestLatencySymmetryAndSiteMapping(t *testing.T) {
	c := New(Options{Nodes: 20, Seed: 1, Config: core.DefaultConfig(),
		Matrix: latency.Synthesize(8, 1)})
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if c.OneWay(i, j) != c.OneWay(j, i) {
				t.Fatalf("asymmetric latency between %d and %d", i, j)
			}
			if c.RTT(i, j) != 2*c.OneWay(i, j) {
				t.Fatalf("RTT != 2x one-way for %d,%d", i, j)
			}
		}
	}
	// Nodes 20 > sites 8: co-located nodes see the local latency.
	if got := c.OneWay(0, 8); got != latency.LocalOneWay {
		t.Fatalf("co-located latency = %v, want %v", got, latency.LocalOneWay)
	}
}

func TestBootstrapMembershipPopulatesViews(t *testing.T) {
	cfg := core.DefaultConfig()
	c := New(Options{Nodes: 40, Seed: 2, Config: cfg})
	c.BootstrapMembership(16)
	for i := 0; i < 40; i++ {
		if got := c.Node(i).MemberCount(); got < 8 {
			t.Fatalf("node %d has %d members after bootstrap, want >= 8", i, got)
		}
	}
}

func TestWireRandomDegreeAndSymmetry(t *testing.T) {
	cfg := core.DefaultConfig()
	c := New(Options{Nodes: 30, Seed: 3, Config: cfg})
	c.WireRandom(3)
	total := 0
	for i := 0; i < 30; i++ {
		n := c.Node(i)
		total += n.Degree()
		for _, nb := range n.Neighbors() {
			found := false
			for _, back := range c.Node(int(nb.ID)).Neighbors() {
				if int(back.ID) == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("asymmetric wired link %d-%d", i, nb.ID)
			}
			if nb.Kind != core.Random {
				t.Fatalf("initial links must be random, got %v", nb.Kind)
			}
		}
	}
	if mean := float64(total) / 30; mean != 6 {
		t.Fatalf("mean initial degree = %v, want exactly 6 (3 initiated each)", mean)
	}
}

func TestObserverSeesAllTraffic(t *testing.T) {
	cfg := core.DefaultConfig()
	var msgs, bytes int64
	c := New(Options{Nodes: 16, Seed: 4, Config: cfg,
		Observer: func(from, to core.NodeID, m core.Message) {
			msgs++
			bytes += int64(m.WireSize())
			if from == to {
				t.Errorf("self-transmission observed")
			}
		}})
	c.BootstrapMembership(12)
	c.WireRandom(3)
	c.Start(0)
	c.Run(10 * time.Second)
	if msgs == 0 || bytes == 0 {
		t.Fatalf("observer saw nothing: %d msgs, %d bytes", msgs, bytes)
	}
}

func TestKillDropsInFlightDelivery(t *testing.T) {
	cfg := core.DefaultConfig()
	c := buildCluster(t, 24, cfg, 5)
	c.Run(30 * time.Second)
	victim := 7
	before := c.Node(victim).Stats().GossipsRecv
	c.Kill(victim)
	c.Kill(victim) // idempotent
	c.Run(10 * time.Second)
	if got := c.Node(victim).Stats().GossipsRecv; got != before {
		t.Fatalf("dead node kept receiving gossips: %d -> %d", before, got)
	}
	if c.AliveCount() != 23 {
		t.Fatalf("alive = %d, want 23", c.AliveCount())
	}
}

func TestDetectionDelayGovernsPeerDown(t *testing.T) {
	cfg := core.DefaultConfig()
	c := New(Options{Nodes: 8, Seed: 6, Config: cfg, DetectionDelay: 2 * time.Second})
	c.BootstrapMembership(6)
	c.WireRandom(2)
	c.Start(0)
	c.Run(20 * time.Second)
	victim := 3
	peers := c.Node(victim).Neighbors()
	if len(peers) == 0 {
		t.Fatalf("victim has no neighbors")
	}
	c.Kill(victim)
	// Before the detection delay the survivors still list the victim.
	c.Run(time.Second)
	still := false
	for _, p := range peers {
		for _, nb := range c.Node(int(p.ID)).Neighbors() {
			if int(nb.ID) == victim {
				still = true
			}
		}
	}
	if !still {
		t.Fatalf("link dropped before the detection delay elapsed")
	}
	// Well after the delay, the victim must be gone everywhere.
	c.Run(10 * time.Second)
	for _, p := range peers {
		for _, nb := range c.Node(int(p.ID)).Neighbors() {
			if int(nb.ID) == victim {
				t.Fatalf("node %d still lists the dead victim", p.ID)
			}
		}
	}
}

func TestReceiveCountsAndMessages(t *testing.T) {
	cfg := core.DefaultConfig()
	c := buildCluster(t, 16, cfg, 7)
	c.Run(30 * time.Second)
	c.Inject(0, nil)
	c.Inject(1, nil)
	c.Run(5 * time.Second)
	if c.Messages() != 2 {
		t.Fatalf("messages = %d", c.Messages())
	}
	for m, got := range c.ReceiveCounts() {
		if got != 16 {
			t.Fatalf("message %d reached %d/16", m, got)
		}
	}
}

func TestTreeSpansAfterWarmup(t *testing.T) {
	c := buildCluster(t, 48, core.DefaultConfig(), 8)
	c.Run(120 * time.Second)
	if !c.TreeSpans(0) {
		t.Fatalf("tree does not span at steady state")
	}
}

func TestTracerRecordsProtocolEvents(t *testing.T) {
	cfg := core.DefaultConfig()
	kinds := map[dtrace.Kind]int{}
	sampled := 0
	c := New(Options{Nodes: 16, Seed: 9, Config: cfg, Trace: func(s dtrace.Span) {
		kinds[s.Kind]++
		if s.Sampled {
			sampled++
		}
	}})
	c.BootstrapMembership(12)
	c.WireRandom(3)
	c.Start(0)
	c.Run(30 * time.Second)
	c.Inject(2, nil)
	c.Run(5 * time.Second)
	if kinds[dtrace.KindInject] != 1 || kinds[dtrace.KindTreeDeliver]+kinds[dtrace.KindPullDeliver]+kinds[dtrace.KindSyncDeliver] != 15 {
		t.Errorf("delivery records %v, want one inject and 15 deliveries", kinds)
	}
	if kinds[dtrace.KindParent] == 0 {
		t.Errorf("no parent-change records traced")
	}
	if kinds[dtrace.KindLinkUp]+kinds[dtrace.KindLinkDown] == 0 {
		t.Errorf("no link records traced")
	}
	if kinds[dtrace.KindTreeSend] == 0 || kinds[dtrace.KindGossipRound] == 0 {
		t.Errorf("no tree-send or gossip-round records traced: %v", kinds)
	}
	if sampled != 0 {
		t.Errorf("%d sampled records with tracing off", sampled)
	}
}

func TestPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("want panic for zero-node cluster")
		}
	}()
	New(Options{Nodes: 0, Seed: 1, Config: core.DefaultConfig()})
}

// TestBatchRandMatchesMathRand checks the env's batched stream against
// (*rand.Rand).Intn over the same seed: small, power-of-two, rejection-
// prone and 63-bit bounds, interleaved.
func TestBatchRandMatchesMathRand(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ref := rand.New(rand.NewSource(seed))
		got := newBatchRand(seed)
		bounds := []int{1, 2, 3, 7, 64, 96, 1000, 1<<30 + 1, 1<<31 - 1, 1 << 31, 5_000_000_000, 1 << 40, 1<<62 + 3}
		for i := 0; i < 20000; i++ {
			n := bounds[i%len(bounds)]
			if a, b := got.Intn(n), ref.Intn(n); a != b {
				t.Fatalf("seed %d draw %d: Intn(%d) = %d, math/rand gives %d", seed, i, n, a, b)
			}
		}
	}
}

// TestPeerStateBudget pins what a node's per-peer state costs: after 60
// virtual seconds of overlay set-up with 256 nodes, the mean of
// core.Node.StateBytes stays within budget, every view keeps its 16-byte
// records in one array sized to the view, and its index takes at most
// 512 B. The budget is about 7 % above the measured 9,832 B: it was
// 11,000 B over 10,320 B until the compact view index returned 512 B of
// the 1,024 B index, and 48-byte view entries and 16-byte RTT slots once
// made the mean 18,937 B.
func TestPeerStateBudget(t *testing.T) {
	const nodes, budget = 256, 11_000 - 512
	cfg := core.DefaultConfig()
	c := New(Options{Nodes: nodes, Seed: 1, Config: cfg, Matrix: latency.Synthesize(nodes, 424242)})
	c.BootstrapMembership(cfg.MemberViewSize / 2)
	c.WireRandom(cfg.TargetDegree() / 2)
	c.Start(0)
	c.Run(60 * time.Second)
	total := 0
	for i := 0; i < nodes; i++ {
		b := c.Node(i).StateBytes()
		if b.View != 16*cfg.MemberViewSize {
			t.Fatalf("node %d view holds %d bytes, want %d (16-byte records, one array)", i, b.View, 16*cfg.MemberViewSize)
		}
		if b.ViewIndex > 512 {
			t.Fatalf("node %d view index takes %d bytes, want at most 512", i, b.ViewIndex)
		}
		total += b.Total()
	}
	if mean := total / nodes; mean > budget {
		t.Fatalf("per-peer state averages %d bytes per node, budget %d; node 0: %+v", mean, budget, c.Node(0).StateBytes())
	}
}

// TestConvergeMallocsPerEvent bounds the garbage of overlay set-up: over
// a steady-state window of converge with 512 nodes (virtual seconds 30 to
// 150 of the benchmark's sim-seq set-up), the heap allocations per
// executed event stay within budget. The window measured 0.242 per event
// (602,246 mallocs over 2,486,277 events) while every probe, link request
// and tree message was a new struct. With those recycled through
// core.ControlPool it measured 0.0019 (4,639 mallocs), the budget.
func TestConvergeMallocsPerEvent(t *testing.T) {
	const nodes, budget = 512, 0.002
	cfg := core.DefaultConfig()
	c := New(Options{Nodes: nodes, Seed: 1, Config: cfg, Matrix: latency.Synthesize(nodes, 424242)})
	c.BootstrapMembership(cfg.MemberViewSize / 2)
	c.WireRandom(cfg.TargetDegree() / 2)
	c.Start(0)
	c.Run(30 * time.Second)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	ev0 := c.ExecutedEvents()
	c.Run(120 * time.Second)
	runtime.ReadMemStats(&ms1)
	events := c.ExecutedEvents() - ev0
	perEvent := float64(ms1.Mallocs-ms0.Mallocs) / float64(events)
	t.Logf("%d mallocs, %.1f MB over %d events: %.4f per event", ms1.Mallocs-ms0.Mallocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6, events, perEvent)
	if perEvent > budget {
		t.Fatalf("converge allocates %.4f times per event, budget %.3f", perEvent, budget)
	}
}
