package live

import (
	"fmt"
	"sync"
	"time"

	"gocast/internal/churn"
	"gocast/internal/core"
)

// ClusterOptions configures an in-process cluster over a MemNetwork.
type ClusterOptions struct {
	// Nodes is the cluster size.
	Nodes int
	// Config is the shared protocol configuration. FastConfig is a good
	// starting point for in-process use.
	Config core.Config
	// Latency is the simulated base network latency (default 2 ms).
	Latency time.Duration
	// PairLatency, if set, gives each ordered slot pair its own one-way
	// latency, overriding the flat Latency base. Realistic latency
	// diversity matters for more than fidelity: the proximity-replacement
	// sweep (overlay condition C4) only ever rewires a saturated overlay
	// when some candidate is clearly closer than a current neighbor, so a
	// latency-flat fabric can leave two healed partition halves stably
	// unconnected forever.
	PairLatency func(i, j int) time.Duration
	// Seed drives randomness.
	Seed int64
	// OnDeliver, if set, observes every delivery as (node index, message,
	// payload). Called on node event loops: do not block.
	OnDeliver func(node int, id core.MessageID, payload []byte)
	// Faults, if set, wraps every endpoint in the controller's fault
	// injection layer (partitions, loss, delays, bandwidth caps). A
	// slot's node ID is its index, which is what fault.Spec ranges and
	// partition cells name.
	Faults *FaultController
}

// Cluster is a group of live nodes connected by an in-memory network —
// the quickest way to run a real (wall-clock) GoCast group inside one
// process. Its membership methods (AddNode, Crash, Leave, Restart,
// RunChurn) are safe for concurrent use with the accessors.
type Cluster struct {
	Net *MemNetwork

	mu       sync.Mutex
	opts     ClusterOptions
	nodes    []*Node
	incar    []uint32
	restarts int
}

// FastConfig returns protocol timing scaled for in-process clusters:
// the same structure as the paper's parameters with much shorter periods,
// so a cluster converges in seconds of wall time.
func FastConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.GossipPeriod = 20 * time.Millisecond
	cfg.MaintainPeriod = 20 * time.Millisecond
	cfg.HeartbeatPeriod = time.Second
	cfg.NeighborTimeout = time.Second
	cfg.RootTimeout = 3 * time.Second
	// PullRetry is the loss timer of a pull, and a record only stays
	// pullable while it is in its holders' bounded stores: at a few hundred
	// bulk messages a second an 8 MiB store turns over in 0.4 s, so the
	// timer leaves room for four rounds of asking inside that.
	cfg.PullRetry = 100 * time.Millisecond
	cfg.ReclaimAfter = 30 * time.Second
	cfg.QuarantineWindow = 2 * time.Second
	cfg.SyncInterval = 2 * time.Second
	return cfg
}

// NewCluster boots a cluster: node 0 becomes the root and every other
// node joins through it.
func NewCluster(opts ClusterOptions) *Cluster {
	if opts.Nodes <= 0 {
		panic("live: cluster needs at least one node")
	}
	if opts.Latency <= 0 {
		opts.Latency = 2 * time.Millisecond
	}
	c := &Cluster{Net: NewMemNetwork(opts.Latency, opts.Seed), opts: opts}
	if opts.PairLatency != nil {
		base := opts.Latency
		fn := opts.PairLatency
		c.Net.SetLatency(func(from, to string) time.Duration {
			i, iok := memSlot(from)
			j, jok := memSlot(to)
			if !iok || !jok {
				return base
			}
			return fn(i, j)
		})
	}
	for i := 0; i < opts.Nodes; i++ {
		c.incar = append(c.incar, 0)
		c.nodes = append(c.nodes, c.newNode(i))
	}
	landmarks := c.landmarkEntries()
	for _, n := range c.nodes {
		n.SetLandmarks(landmarks)
	}
	c.nodes[0].BecomeRoot()
	for i := 1; i < opts.Nodes; i++ {
		c.nodes[i].Join(c.nodes[0].Entry())
	}
	return c
}

// memSlot parses a cluster endpoint address ("mem-<i>") back to its slot
// index.
func memSlot(addr string) (int, bool) {
	const prefix = "mem-"
	if len(addr) <= len(prefix) || addr[:len(prefix)] != prefix {
		return 0, false
	}
	n := 0
	for _, c := range addr[len(prefix):] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// newNode builds (and starts) a live node for slot i at its current
// incarnation. Callers hold c.mu or are single-threaded setup code.
func (c *Cluster) newNode(i int) *Node {
	idx := i
	ep := c.Net.Endpoint(fmt.Sprintf("mem-%d", i))
	var tr Transport = ep
	if c.opts.Faults != nil {
		tr = c.opts.Faults.Wrap(core.NodeID(i), ep)
	}
	var deliver core.DeliverFunc
	if c.opts.OnDeliver != nil {
		deliver = func(id core.MessageID, payload []byte, _ time.Duration) {
			c.opts.OnDeliver(idx, id, payload)
		}
	}
	return NewNode(NodeOptions{
		ID:          core.NodeID(i),
		Config:      c.opts.Config,
		Transport:   tr,
		Seed:        c.opts.Seed + int64(i) + int64(c.incar[i])<<32,
		Incarnation: c.incar[i],
		OnDeliver:   deliver,
	})
}

// landmarkEntries snapshots the landmark set (the first LandmarkCount
// slots) at their current incarnations. Callers hold c.mu or are
// single-threaded setup code.
func (c *Cluster) landmarkEntries() []core.Entry {
	lc := c.opts.Config.LandmarkCount
	if lc > len(c.nodes) {
		lc = len(c.nodes)
	}
	lms := make([]core.Entry, 0, lc)
	for i := 0; i < lc; i++ {
		lms = append(lms, c.nodes[i].Entry())
	}
	return lms
}

// Node returns the i-th node (its current life, if the slot restarted).
func (c *Cluster) Node(i int) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

// Size returns the cluster size (slots, including stopped ones).
func (c *Cluster) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// AliveCount returns the number of running nodes.
func (c *Cluster) AliveCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, nd := range c.nodes {
		if !nd.Stopped() {
			n++
		}
	}
	return n
}

// Incarnation returns slot i's current incarnation number.
func (c *Cluster) Incarnation(i int) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.incar[i]
}

// Restarts returns how many node restarts the cluster has performed.
func (c *Cluster) Restarts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.restarts
}

// Alive reports whether slot i's node is running.
func (c *Cluster) Alive(i int) bool { return !c.Node(i).Stopped() }

// AddNode grows the group by one node, joining through running slot
// contact. It returns the new slot index, or -1 if contact is not running.
func (c *Cluster) AddNode(contact int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nodes[contact].Stopped() {
		return -1
	}
	i := len(c.nodes)
	c.incar = append(c.incar, 0)
	c.nodes = append(c.nodes, nil)
	n := c.newNode(i)
	c.nodes[i] = n
	n.SetLandmarks(c.landmarkEntries())
	n.Join(c.nodes[contact].Entry())
	return i
}

// Crash kills slot i abruptly (no departure notice).
func (c *Cluster) Crash(i int) {
	if n := c.Node(i); !n.Stopped() {
		n.Kill()
	}
}

// Leave makes slot i depart gracefully; its obituary spreads via gossip.
func (c *Cluster) Leave(i int) {
	if n := c.Node(i); !n.Stopped() {
		n.Close()
	}
}

// Restart revives a stopped slot under a bumped incarnation: a fresh node
// owns the slot's address again, re-measures landmarks, and rejoins
// through running slot contact. It reports whether a restart happened
// (slot i must be stopped and contact running).
func (c *Cluster) Restart(i, contact int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.nodes[i].Stopped() || c.nodes[contact].Stopped() {
		return false
	}
	c.incar[i]++
	c.restarts++
	n := c.newNode(i)
	c.nodes[i] = n
	n.SetLandmarks(c.landmarkEntries())
	n.Join(c.nodes[contact].Entry())
	return true
}

// RunChurn executes the plan against the cluster in wall-clock time,
// blocking until the horizon passes; a churn.Runner picks each event's
// target. Timing is wall-clock, so only the event order, not the exact
// interleaving with protocol traffic, is reproducible.
func (c *Cluster) RunChurn(opts churn.Options) churn.Stats {
	r := churn.NewRunner(c, opts)
	start := time.Now()
	for _, ev := range opts.Plan.Schedule() {
		if d := ev.At - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		r.Step(ev.Kind)
	}
	if d := opts.Plan.Duration - time.Since(start); d > 0 {
		time.Sleep(d)
	}
	return r.Stats
}

// AwaitDegree blocks until every running node has at least min overlay
// neighbors or the timeout expires; it reports success.
func (c *Cluster) AwaitDegree(min int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for _, n := range c.snapshot() {
			if !n.Stopped() && n.Degree() < min {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
		time.Sleep(50 * time.Millisecond)
	}
	return false
}

// snapshot copies the node slice under the lock.
func (c *Cluster) snapshot() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Node(nil), c.nodes...)
}

// Close shuts every node down.
func (c *Cluster) Close() {
	for _, n := range c.snapshot() {
		n.Close()
	}
}
