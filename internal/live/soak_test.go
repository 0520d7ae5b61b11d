package live

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gocast/internal/core"
	"gocast/internal/fault"
)

// TestSoakChurnAndTraffic runs a live in-process group for several seconds
// of wall time under concurrent multicasts, abrupt kills, graceful leaves,
// and joins, checking that the group keeps delivering and that survivors'
// overlay state stays sane. Skipped with -short.
func TestSoakChurnAndTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const base = 20
	var (
		mu        sync.Mutex
		delivered = map[core.MessageID]map[core.NodeID]bool{}
	)
	record := func(node core.NodeID) core.DeliverFunc {
		return func(id core.MessageID, _ []byte, _ time.Duration) {
			mu.Lock()
			if delivered[id] == nil {
				delivered[id] = map[core.NodeID]bool{}
			}
			delivered[id][node] = true
			mu.Unlock()
		}
	}

	net := NewMemNetwork(time.Millisecond, 1)
	cfg := FastConfig()
	nodes := map[core.NodeID]*Node{}
	var nextID core.NodeID
	newNode := func() *Node {
		id := nextID
		nextID++
		ep := net.Endpoint(fmt.Sprintf("soak-%d", id))
		n := NewNode(NodeOptions{
			ID: id, Config: cfg, Transport: ep,
			Seed:      int64(id) + 99,
			OnDeliver: record(id),
		})
		nodes[id] = n
		return n
	}
	root := newNode()
	root.BecomeRoot()
	root.SetLandmarks([]core.Entry{root.Entry()})
	for i := 1; i < base; i++ {
		n := newNode()
		n.SetLandmarks([]core.Entry{root.Entry()})
		n.Join(root.Entry())
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	// Wait for the overlay to form.
	deadline := time.Now().Add(20 * time.Second)
	for {
		ok := true
		for _, n := range nodes {
			if n.Degree() < 2 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("overlay did not form")
		}
		time.Sleep(50 * time.Millisecond)
	}

	dead := map[core.NodeID]bool{}
	var sent []core.MessageID
	pick := func(k int) *Node {
		i := 0
		for id, n := range nodes {
			if dead[id] {
				continue
			}
			if i == k%len(nodes) {
				return n
			}
			i++
		}
		return root
	}
	for round := 0; round < 30; round++ {
		sent = append(sent, pick(round*7).Multicast([]byte("soak")))
		switch round {
		case 8:
			victim := pick(3)
			if victim != root {
				dead[victim.ID()] = true
				victim.Kill()
			}
		case 15:
			leaver := pick(11)
			if leaver != root && !dead[leaver.ID()] {
				dead[leaver.ID()] = true
				leaver.Close()
			}
		case 22:
			n := newNode()
			n.SetLandmarks([]core.Entry{root.Entry()})
			n.Join(root.Entry())
		}
		time.Sleep(150 * time.Millisecond)
	}

	// Every message must reach every node that was alive for the whole
	// run (conservative: check only the always-alive set).
	time.Sleep(4 * time.Second)
	mu.Lock()
	defer mu.Unlock()
	for _, id := range sent {
		for nid := range nodes {
			if dead[nid] || nid >= base { // skip churned and late joiners
				continue
			}
			if !delivered[id][nid] {
				t.Errorf("node %d missed message %s", nid, id)
			}
		}
	}
}

// deliveryLog tracks which cluster node has seen which message.
type deliveryLog struct {
	mu  sync.Mutex
	got map[core.MessageID]map[int]bool
}

func newDeliveryLog() *deliveryLog {
	return &deliveryLog{got: map[core.MessageID]map[int]bool{}}
}

func (l *deliveryLog) record(node int, id core.MessageID, _ []byte) {
	l.mu.Lock()
	if l.got[id] == nil {
		l.got[id] = map[int]bool{}
	}
	l.got[id][node] = true
	l.mu.Unlock()
}

// missing counts (message, node) pairs not yet delivered, skipping nodes
// for which skip returns true.
func (l *deliveryLog) missing(sent []core.MessageID, nodes int, skip func(int) bool) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, id := range sent {
		for i := 0; i < nodes; i++ {
			if skip != nil && skip(i) {
				continue
			}
			if !l.got[id][i] {
				n++
			}
		}
	}
	return n
}

func awaitFullDelivery(t *testing.T, l *deliveryLog, sent []core.MessageID, nodes int, skip func(int) bool, timeout time.Duration, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		m := l.missing(sent, nodes, skip)
		if m == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d (message, node) pairs undelivered", what, m)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestSoakPartitionHealDelivery injects a 2-second two-sided partition
// into a running cluster and checks that after the fault clears the
// overlay degree re-converges and every message — including those
// multicast mid-partition on both sides — eventually reaches every node.
// This exercises the whole recovery chain: fault-layer blackholes,
// keepalive link teardown, membership re-learning, link re-formation, and
// gossip re-announcement of retired messages. Skipped with -short.
func TestSoakPartitionHealDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const n = 12
	log := newDeliveryLog()
	ctl := NewFaultController()
	c := NewCluster(ClusterOptions{
		Nodes:     n,
		Config:    FastConfig(),
		Seed:      11,
		Faults:    ctl,
		OnDeliver: log.record,
	})
	defer c.Close()
	if !c.AwaitDegree(2, 20*time.Second) {
		t.Fatalf("cluster never converged")
	}

	var sent []core.MessageID
	sent = append(sent, c.Node(0).Multicast([]byte("pre-partition")))
	awaitFullDelivery(t, log, sent, n, nil, 20*time.Second, "pre-partition message")

	// Partition nodes 0..7 from 8..11 for two seconds.
	var sideA, sideB []int
	for i := 0; i < n; i++ {
		if i < 8 {
			sideA = append(sideA, i)
		} else {
			sideB = append(sideB, i)
		}
	}
	ctl.Set(&fault.Spec{Seed: 5, Partition: [][]int{sideA, sideB}})

	time.Sleep(400 * time.Millisecond)
	sent = append(sent, c.Node(2).Multicast([]byte("during-side-a")))
	sent = append(sent, c.Node(9).Multicast([]byte("during-side-b")))
	time.Sleep(1600 * time.Millisecond)
	ctl.Set(nil)
	time.Sleep(400 * time.Millisecond)

	sent = append(sent, c.Node(5).Multicast([]byte("post-heal")))

	if ctl.Counters()["fault_blocked"] == 0 {
		t.Fatalf("partition blocked nothing; the fault wiring is broken")
	}
	if !c.AwaitDegree(2, 30*time.Second) {
		t.Fatalf("overlay degree never re-converged after the heal")
	}
	awaitFullDelivery(t, log, sent, n, nil, 45*time.Second, "post-heal reconciliation")
}

// TestSoakTCPConnectionCutMidStream streams multicasts over a real TCP
// cluster, abruptly cuts every connection of one node mid-stream, and
// checks that backoff redial restores the links transparently: every
// message is delivered everywhere, the redial counters move, and the
// protocol layer never sees a peer failure. Skipped with -short.
func TestSoakTCPConnectionCutMidStream(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const n = 5
	cfg := FastConfig()
	log := newDeliveryLog()
	opts := TCPOptions{
		DialTimeout:    time.Second,
		WriteTimeout:   2 * time.Second,
		RedialAttempts: 8,
		RedialBackoff:  30 * time.Millisecond,
		IdleTimeout:    -1,
	}
	transports := make([]*TCPTransport, 0, n)
	nodes := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		tr, err := NewTCPTransportWithOptions(core.NodeID(i), "127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		idx := i
		transports = append(transports, tr)
		nodes = append(nodes, NewNode(NodeOptions{
			ID:        core.NodeID(i),
			Config:    cfg,
			Transport: tr,
			Seed:      int64(2000 + i),
			OnDeliver: func(id core.MessageID, payload []byte, _ time.Duration) {
				log.record(idx, id, payload)
			},
		}))
	}
	defer func() {
		for _, node := range nodes {
			node.Close()
		}
	}()
	landmarks := []core.Entry{nodes[0].Entry(), nodes[1].Entry()}
	for _, node := range nodes {
		node.SetLandmarks(landmarks)
	}
	nodes[0].BecomeRoot()
	for i := 1; i < n; i++ {
		nodes[i].Join(nodes[0].Entry())
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		ok := true
		for _, node := range nodes {
			if node.Degree() < 2 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("TCP cluster did not converge")
		}
		time.Sleep(100 * time.Millisecond)
	}

	var sent []core.MessageID
	for i := 0; i < 12; i++ {
		sent = append(sent, nodes[i%n].Multicast([]byte("stream")))
		if i == 5 {
			if cut := transports[2].DropConnections(); cut == 0 {
				t.Fatalf("mid-stream cut found no connections")
			}
		}
		time.Sleep(100 * time.Millisecond)
	}

	awaitFullDelivery(t, log, sent, n, nil, 30*time.Second, "stream after connection cut")

	var redials int64
	for _, tr := range transports {
		redials += tr.Stats()[CtrRedials]
	}
	if redials < 1 {
		t.Errorf("no redials recorded after cutting %s's connections", nodes[2].Addr())
	}
	// The cut must have been absorbed below the protocol: redial succeeded
	// well within the keepalive timeout, so no peer was reported down.
	for i, node := range nodes {
		if pd := node.Stats().PeerDowns; pd != 0 {
			t.Errorf("node %d saw %d peer-down reports for a transient cut", i, pd)
		}
	}
}

// TestSoakChaosBackground runs a cluster under continuous mild chaos —
// 15 % loss on both channels and up to 20 ms of jitter, which reorders
// frames — with one abrupt kill, checking the group still delivers
// everything to the survivors. Skipped with -short.
func TestSoakChaosBackground(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const n = 10
	const victim = 7
	log := newDeliveryLog()
	ctl := NewFaultController()
	ctl.Set(&fault.Spec{Seed: 9, Rules: []fault.Link{{Loss: 0.15, Jitter: 20 * time.Millisecond}}})
	c := NewCluster(ClusterOptions{
		Nodes:     n,
		Config:    FastConfig(),
		Seed:      17,
		Faults:    ctl,
		OnDeliver: log.record,
	})
	defer c.Close()
	if !c.AwaitDegree(2, 30*time.Second) {
		t.Fatalf("cluster never converged under background chaos")
	}

	var sent []core.MessageID
	for i := 0; i < 10; i++ {
		sender := i % n
		if sender == victim {
			sender = 0
		}
		sent = append(sent, c.Node(sender).Multicast([]byte("chaos")))
		if i == 4 {
			c.Node(victim).Kill()
		}
		time.Sleep(150 * time.Millisecond)
	}

	skip := func(i int) bool { return i == victim }
	awaitFullDelivery(t, log, sent, n, skip, 30*time.Second, "chaos delivery")
	counters := ctl.Counters()
	if counters["fault_dropped"] == 0 || counters["fault_delayed"] == 0 {
		t.Errorf("chaos phase injected nothing: %v", counters)
	}
}
