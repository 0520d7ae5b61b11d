package live

import (
	"sort"
	"strings"
	"testing"
	"time"

	"gocast/internal/core"
	"gocast/internal/dtrace"
	"gocast/internal/obs/promtest"
)

// TestHealthFlipsUnhealthyOnPartition pins the /healthz acceptance
// criterion: a node that loses every overlay neighbor (here: its only peer
// is killed) reports unhealthy once failure detection notices.
func TestHealthFlipsUnhealthyOnPartition(t *testing.T) {
	c := NewCluster(ClusterOptions{Nodes: 2, Config: FastConfig(), Seed: 11})
	defer c.Close()
	if !c.AwaitDegree(1, 10*time.Second) {
		t.Fatalf("pair never linked")
	}
	if err := c.Node(0).Health(); err != nil {
		t.Fatalf("linked node unhealthy: %v", err)
	}

	c.Node(1).Kill()
	deadline := time.Now().Add(15 * time.Second)
	for {
		err := c.Node(0).Health()
		if err != nil {
			if !strings.Contains(err.Error(), "disconnected") {
				t.Fatalf("unexpected health error: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivor never turned unhealthy after losing its only neighbor")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// A stopped node is unhealthy by definition.
	if err := c.Node(1).Health(); err == nil {
		t.Fatalf("killed node reports healthy")
	}
}

// TestObsMetricsAndTraceWiring drives one multicast through a pair and
// checks that the registry histograms and the trace ring observed it.
func TestObsMetricsAndTraceWiring(t *testing.T) {
	c := NewCluster(ClusterOptions{Nodes: 2, Config: FastConfig(), Seed: 12})
	defer c.Close()
	if !c.AwaitDegree(1, 10*time.Second) {
		t.Fatalf("pair never linked")
	}
	// Wait for the first heartbeat wave to attach node 1 to the tree —
	// and for node 0 to process the TreeParent notice and count node 1
	// as a child — so the multicast below travels as a tree push (not a
	// gossip pull).
	deadline := time.Now().Add(10 * time.Second)
	for c.Node(1).Parent() != 0 || len(c.Node(0).TreeNeighbors()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("node 1 never attached to the tree")
		}
		time.Sleep(20 * time.Millisecond)
	}
	id := c.Node(0).Multicast([]byte("trace me"))
	deadline = time.Now().Add(5 * time.Second)
	for !c.Node(1).Seen(id) {
		if time.Now().After(deadline) {
			t.Fatalf("multicast never delivered")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The receiver got the payload over a tree link, so its tree-forward
	// latency histogram must have at least one observation.
	var forwardCount, gossipCount int64
	for _, m := range c.Node(1).Registry().Gather() {
		switch m.Name {
		case "gocast_core_tree_forward_latency_seconds":
			forwardCount = m.Hist.Count
		case "gocast_core_gossip_round_duration_seconds":
			gossipCount = m.Hist.Count
		}
	}
	if forwardCount < 1 {
		t.Errorf("tree-forward latency histogram empty on the receiver")
	}
	if gossipCount < 1 {
		t.Errorf("gossip round duration histogram empty")
	}

	// Both ends traced the message (the only one sent): an inject and a
	// tree send on the source, a tree delivery on the receiver.
	count := func(n int, kind dtrace.Kind) int {
		tb := c.Node(n).Trace()
		if tb == nil {
			t.Fatalf("event ring disabled by default")
		}
		k := 0
		for _, e := range tb.Snapshot() {
			if e.Kind == kind {
				k++
			}
		}
		return k
	}
	if count(0, dtrace.KindInject) != 1 || count(0, dtrace.KindTreeSend) != 1 {
		t.Errorf("source event ring lacks the inject and tree send: %v", c.Node(0).Trace().Snapshot())
	}
	if count(1, dtrace.KindTreeDeliver) != 1 {
		t.Errorf("receiver event ring lacks the tree delivery: %v", c.Node(1).Trace().Snapshot())
	}
	if count(1, dtrace.KindLinkUp) == 0 {
		t.Errorf("receiver event ring has no link-up records: %v", c.Node(1).Trace().Snapshot())
	}
	// Gossip rounds feed their histogram, not the event ring; with
	// sampling off nothing reaches the span ring.
	if count(1, dtrace.KindGossipRound) != 0 || len(c.Node(1).Spans()) != 0 {
		t.Errorf("gossip rounds in the event ring or spans recorded with sampling off")
	}
}

// TestTraceMetricsConformance drives a traced multicast through a pair
// and strict-parses the receiver's Prometheus exposition: every
// gocast_trace_* family (and the FEC assembly gauge) must be present,
// well-typed, and reflect the traced delivery.
func TestTraceMetricsConformance(t *testing.T) {
	cfg := FastConfig()
	cfg.TraceSampleEvery = 1
	c := NewCluster(ClusterOptions{Nodes: 2, Config: cfg, Seed: 14})
	defer c.Close()
	if !c.AwaitDegree(1, 10*time.Second) {
		t.Fatalf("pair never linked")
	}
	id := c.Node(0).Multicast([]byte("trace metrics"))
	deadline := time.Now().Add(5 * time.Second)
	for !c.Node(1).Seen(id) {
		if time.Now().After(deadline) {
			t.Fatalf("multicast never delivered")
		}
		time.Sleep(20 * time.Millisecond)
	}

	var sb strings.Builder
	if err := c.Node(1).Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	families := promtest.Parse(t, text)
	for name, wantType := range map[string]string{
		"gocast_trace_spans_recorded_total": "counter",
		"gocast_trace_spans_dropped_total":  "counter",
		"gocast_trace_delivery_age_seconds": "histogram",
		"gocast_fec_assembling":             "gauge",
	} {
		f, ok := families[name]
		if !ok {
			t.Fatalf("family %s missing from exposition:\n%s", name, text)
		}
		if !f.Help || f.Type != wantType {
			t.Errorf("family %s: help=%v type=%q, want help and %q", name, f.Help, f.Type, wantType)
		}
		if !promtest.ValidName(name) {
			t.Errorf("family name %q invalid", name)
		}
	}
	if got := families["gocast_trace_spans_recorded_total"].Samples["gocast_trace_spans_recorded_total"]; got < 1 {
		t.Errorf("spans_recorded_total = %v after a traced delivery, want >= 1", got)
	}
	if got := families["gocast_trace_delivery_age_seconds"].Samples["gocast_trace_delivery_age_seconds_count"]; got < 1 {
		t.Errorf("delivery age histogram count = %v, want >= 1", got)
	}
	if got := families["gocast_trace_spans_dropped_total"].Samples["gocast_trace_spans_dropped_total"]; got != 0 {
		t.Errorf("spans_dropped_total = %v, want 0", got)
	}

	// The receiver's span buffer holds the delivery for /spans scraping.
	found := false
	for _, s := range c.Node(1).Spans() {
		if s.Src == int32(id.Source) && s.Seq == id.Seq && s.Kind.DeliveryKind() {
			found = true
		}
	}
	if !found {
		t.Errorf("receiver span buffer has no delivery span for %v: %+v", id, c.Node(1).Spans())
	}
}

// TestStatusSnapshotSurvivesStop checks /statusz's data source before and
// after a stop.
func TestStatusSnapshotSurvivesStop(t *testing.T) {
	c := NewCluster(ClusterOptions{Nodes: 2, Config: FastConfig(), Seed: 13})
	defer c.Close()
	if !c.AwaitDegree(1, 10*time.Second) {
		t.Fatalf("pair never linked")
	}
	st := c.Node(1).Status()
	if st.ID != 1 || st.Degree < 1 || st.Addr == "" {
		t.Fatalf("status = %+v", st)
	}
	if st.Stopped {
		t.Fatalf("running node reports stopped")
	}
	c.Node(1).Close()
	st = c.Node(1).Status()
	if !st.Stopped {
		t.Fatalf("stopped node's status lacks Stopped")
	}
	if st.ID != 1 {
		t.Fatalf("post-stop status lost identity: %+v", st)
	}
}

// TestTraceSampling checks the 1-in-N trace knob: with a large sampling
// divisor only a fraction of events lands in the ring.
func TestTraceSampling(t *testing.T) {
	net := NewMemNetwork(time.Millisecond, 7)
	n := NewNode(NodeOptions{ID: 1, Config: FastConfig(), Transport: net.Endpoint("s1"), Seed: 1, TraceSample: 1000})
	defer n.Close()
	n.BecomeRoot()
	for i := 0; i < 50; i++ {
		n.Multicast([]byte("x"))
	}
	// 50 injects (and their local deliveries) at 1-in-1000 sampling: at
	// most one event (the first) may be recorded.
	if got := n.Trace().Len(); got > 1 {
		t.Fatalf("trace recorded %d events at 1-in-1000 sampling, want <= 1", got)
	}

	// Negative capacity disables the ring entirely.
	n2 := NewNode(NodeOptions{ID: 2, Config: FastConfig(), Transport: net.Endpoint("s2"), Seed: 2, TraceCapacity: -1})
	defer n2.Close()
	if n2.Trace() != nil {
		t.Fatalf("TraceCapacity<0 still allocated a ring")
	}
}

// TestDisabledBufferRecordsNothing checks that a negative TraceCapacity
// turns off only the event ring: the node still publishes, and its
// observer still feeds the span ring for sampled messages.
func TestDisabledBufferRecordsNothing(t *testing.T) {
	net := NewMemNetwork(time.Millisecond, 9)
	cfg := FastConfig()
	cfg.TraceSampleEvery = 1
	n := NewNode(NodeOptions{ID: 1, Config: cfg, Transport: net.Endpoint("d1"), Seed: 1, TraceCapacity: -1})
	defer n.Close()
	n.BecomeRoot()
	id := n.Multicast([]byte("x"))
	deadline := time.Now().Add(5 * time.Second)
	for !n.Seen(id) || len(n.Spans()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("disabled event ring stopped the node publishing or tracing spans")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n.Trace() != nil {
		t.Fatalf("TraceCapacity<0 still allocated a ring")
	}

	// The same node with the default capacity records the inject.
	n2 := NewNode(NodeOptions{ID: 2, Config: cfg, Transport: net.Endpoint("d2"), Seed: 2})
	defer n2.Close()
	n2.BecomeRoot()
	n2.Multicast([]byte("x"))
	deadline = time.Now().Add(5 * time.Second)
	for n2.Trace().Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("default-capacity event ring recorded nothing")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCounterFamiliesExistOnFirstScrape pins that every transport, fault
// and store counter is exported, at zero, by the very first scrape of a
// node that has seen no traffic, and that the snapshots behind those
// families report the same names before and after traffic.
func TestCounterFamiliesExistOnFirstScrape(t *testing.T) {
	ctl := NewFaultController(FaultPlan{Seed: 1})
	var tcps []*TCPTransport
	var nodes []*Node
	newNode := func(id core.NodeID) *Node {
		tr, err := NewTCPTransport(id, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tcps = append(tcps, tr)
		n := NewNode(NodeOptions{ID: id, Config: FastConfig(), Transport: ctl.Wrap(tr), Seed: int64(id)})
		nodes = append(nodes, n)
		return n
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	a := newNode(0)
	a.BecomeRoot()

	want := []string{
		CtrDials, CtrDialErrors, CtrRedials, CtrBackoffResets, CtrWriteErrors,
		CtrFramesRequeue, CtrFramesDropped, CtrQueueOverflow, CtrEncodeErrors,
		CtrIdleReaped, CtrPeersFailed, CtrWriteBatches, CtrFramesWritten,
		CtrDroppedCritical, CtrDroppedRepair, CtrDroppedBackground,
		CtrPeerPauses, CtrPeerResumes,
		CtrFaultBlocked, CtrFaultDropped, CtrFaultDelayed, CtrFaultDuplicated,
		CtrFaultReordered, CtrFaultThrottled, CtrFaultPassed,
	}
	families := make([]string, 0, len(want)+9)
	for _, c := range want {
		families = append(families, "gocast_transport_"+c+"_total")
	}
	for _, c := range []string{"puts", "duplicate_puts", "symbol_puts", "duplicate_symbol_puts",
		"rejected_symbol_puts", "evictions", "reclaims_stable", "reclaims_aged", "tombstones_dropped"} {
		families = append(families, "gocast_store_"+c+"_total")
	}
	got := map[string]int64{}
	for _, m := range a.Registry().Gather() {
		got[m.Name] = m.Value
	}
	for _, name := range families {
		if v, ok := got[name]; !ok || v != 0 {
			t.Errorf("first scrape: %s = %d, present %v; want present at 0", name, v, ok)
		}
	}

	keys := func(m map[string]int64) string {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		return strings.Join(names, ",")
	}
	before := []string{keys(tcps[0].Stats()), keys(ctl.Counters()), keys(a.StoreStats())}

	b := newNode(1)
	b.Join(a.Entry())
	deadline := time.Now().Add(10 * time.Second)
	for a.Degree() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pair never linked")
		}
		time.Sleep(20 * time.Millisecond)
	}
	id := a.Multicast([]byte("count me"))
	for !b.Seen(id) {
		if time.Now().After(deadline) {
			t.Fatal("multicast never delivered")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if ts, st := tcps[0].Stats(), a.StoreStats(); ts[CtrFramesWritten] == 0 || st["puts"] == 0 {
		t.Fatalf("traffic moved no counter: %s=%d, puts=%d", CtrFramesWritten, ts[CtrFramesWritten], st["puts"])
	}
	after := []string{keys(tcps[0].Stats()), keys(ctl.Counters()), keys(a.StoreStats())}
	for i, what := range []string{"TCPTransport.Stats", "FaultController.Counters", "Node.StoreStats"} {
		if before[i] != after[i] {
			t.Errorf("%s names changed with traffic:\nbefore %s\nafter  %s", what, before[i], after[i])
		}
	}
}
