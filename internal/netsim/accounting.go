package netsim

import (
	"math"
	"time"

	"gocast/internal/core"
	"gocast/internal/graph"
	"gocast/internal/metrics"
)

// Inject starts a multicast at node `from` and tracks its deliveries.
func (c *Cluster) Inject(from int, payload []byte) core.MessageID {
	idx := len(c.injectTimes)
	c.injectTimes = append(c.injectTimes, c.Engine.Now())
	c.sources = append(c.sources, from)
	row := make([]time.Duration, len(c.nodes))
	for i := range row {
		row[i] = -1
	}
	c.recv = append(c.recv, row)
	// Register before Multicast: the source's own delivery is synchronous.
	id := c.nodes[from].NextMessageID()
	c.msgIndex[id] = idx
	c.msgIDs = append(c.msgIDs, id)
	if got := c.nodes[from].Multicast(payload); got != id {
		panic("netsim: message ID prediction mismatch")
	}
	return id
}

// InjectStream schedules `count` multicasts at the given rate from random
// live source nodes, starting one interval from now.
func (c *Cluster) InjectStream(count int, perSecond float64, payload []byte) {
	interval := time.Duration(float64(time.Second) / perSecond)
	for k := 1; k <= count; k++ {
		c.Engine.After(time.Duration(k)*interval, func() {
			src := c.randomLive()
			if src >= 0 {
				c.Inject(src, payload)
			}
		})
	}
}

func (c *Cluster) randomLive() int {
	n := len(c.nodes)
	for tries := 0; tries < 4*n; tries++ {
		i := c.rng.Intn(n)
		if c.alive[i] {
			return i
		}
	}
	return -1
}

func (c *Cluster) recordDelivery(id core.MessageID, node int, now time.Duration) {
	idx, ok := c.msgIndex[id]
	if !ok {
		return
	}
	if c.recv[idx][node] < 0 {
		c.recv[idx][node] = now
	} else {
		// Second delivery of the same message at the same slot: only
		// possible across a restart, when the new life's dedup state is
		// empty. An application-visible duplicate.
		c.redelivered.Add(1)
	}
}

// Redelivered counts application-level duplicate deliveries — the same
// tracked message delivered twice at one slot, which only happens when a
// restarted life re-receives a message its past life already delivered.
func (c *Cluster) Redelivered() int { return int(c.redelivered.Load()) }

// TreeRepairs returns the distribution of tree-repair latencies: the time
// from losing a parent (or restarting) to re-attaching to the tree.
func (c *Cluster) TreeRepairs() *metrics.DelayRecorder { return c.repairs }

// RecoveryViolations counts (message, node) pairs where a live node never
// received a message injected after the slot FIRST entered the system —
// including messages its dead past lives missed while down. Where
// AtomicityViolations judges only stably-up nodes (a restarted life is
// excused from its predecessor's gaps), this metric demands full catch-up:
// it reaches zero only when the store-sync protocol has backfilled every
// restarted node. Messages injected less than `grace` ago are not judged.
func (c *Cluster) RecoveryViolations(grace time.Duration) int {
	v := 0
	c.expected(c.Engine.Now()-grace, c.firstJoin, func(m, i int) bool {
		if c.recv[m][i] < 0 {
			v++
		}
		return true
	})
	return v
}

// AtomicityViolations counts (message, node) pairs where a node that was
// stably up for the message's whole lifetime — alive now, and in its
// current life since before the injection — never received it. Only
// messages injected at least `grace` before now are judged, so messages
// still propagating are not counted.
func (c *Cluster) AtomicityViolations(grace time.Duration) int {
	v := 0
	c.expected(c.Engine.Now()-grace, c.joined, func(m, i int) bool {
		if c.recv[m][i] < 0 {
			v++
		}
		return true
	})
	return v
}

// AtomicityOffenders returns the message IDs that AtomicityViolations
// would count against — messages old enough to judge that at least one
// stably-up node never received — in injection order. When dissemination
// tracing is on (sampled records from Options.Trace), stitching a trace for one of these shows
// exactly where its dissemination tree stopped short.
func (c *Cluster) AtomicityOffenders(grace time.Duration) []core.MessageID {
	return c.offenders(grace, c.joined)
}

// RecoveryOffenders returns the message IDs that RecoveryViolations would
// count against — messages old enough to judge that at least one live
// node, in any of its lives, never received — in injection order.
func (c *Cluster) RecoveryOffenders(grace time.Duration) []core.MessageID {
	return c.offenders(grace, c.firstJoin)
}

// offenders lists, in injection order, the messages old enough to judge
// that some node expected to receive them (by its since time) never did.
func (c *Cluster) offenders(grace time.Duration, since []time.Duration) []core.MessageID {
	var out []core.MessageID
	c.expected(c.Engine.Now()-grace, since, func(m, i int) bool {
		if c.recv[m][i] < 0 {
			out = append(out, c.msgIDs[m])
			return false
		}
		return true
	})
	return out
}

// expected walks every (message, node) pair where node i was expected to
// receive message m, in message then node order: m was injected no later
// than cutoff, and i is alive and has been in the system, by its since
// time (joined or firstJoin), since before the injection. visit returns
// false to move on to the next message.
func (c *Cluster) expected(cutoff time.Duration, since []time.Duration, visit func(m, i int) bool) {
	for m, at := range c.injectTimes {
		if at > cutoff {
			continue
		}
		for i := range c.nodes {
			if c.alive[i] && since[i] <= at && !visit(m, i) {
				break
			}
		}
	}
}

// StaleLinks counts overlay links at live nodes whose neighbor entry holds
// an incarnation older than the peer's current one — a link formed with a
// dead past life that was never torn down. The churn acceptance criterion
// is that this settles to zero.
func (c *Cluster) StaleLinks() int {
	stale := 0
	for i, n := range c.nodes {
		if !c.alive[i] {
			continue
		}
		for _, nb := range n.Neighbors() {
			j := int(nb.ID)
			if j >= 0 && j < len(c.incar) && c.alive[j] && nb.Inc < c.incar[j] {
				stale++
			}
		}
	}
	return stale
}

// Delays builds the delivery-delay distribution over every (message, live
// node) pair, the quantity plotted in Figures 3 and 4. Dead nodes and
// nodes that joined after the injection are not expected receivers;
// expected receivers that never got a message are recorded as misses.
func (c *Cluster) Delays() *metrics.DelayRecorder {
	rec := metrics.NewDelayRecorder()
	c.expected(math.MaxInt64, c.joined, func(m, i int) bool {
		if at := c.recv[m][i]; at < 0 {
			rec.AddMiss()
		} else {
			rec.Add(at - c.injectTimes[m])
		}
		return true
	})
	return rec
}

// ReceiveCounts returns, for each message, how many live nodes received it
// (used by the reliability censuses).
func (c *Cluster) ReceiveCounts() []int {
	out := make([]int, len(c.recv))
	for m := range c.recv {
		for i := range c.nodes {
			if c.alive[i] && c.recv[m][i] >= 0 {
				out[m]++
			}
		}
	}
	return out
}

// Messages returns the number of injected (tracked) messages.
func (c *Cluster) Messages() int { return len(c.injectTimes) }

// DegreeHistogram returns the total-degree distribution over live nodes.
func (c *Cluster) DegreeHistogram() *metrics.IntHistogram {
	h := metrics.NewIntHistogram()
	for i, n := range c.nodes {
		if c.alive[i] {
			h.Add(n.Degree())
		}
	}
	return h
}

// RandDegreeHistogram returns the random-degree distribution (live nodes).
func (c *Cluster) RandDegreeHistogram() *metrics.IntHistogram {
	h := metrics.NewIntHistogram()
	for i, n := range c.nodes {
		if c.alive[i] {
			h.Add(n.RandDegree())
		}
	}
	return h
}

// NearDegreeHistogram returns the nearby-degree distribution (live nodes).
func (c *Cluster) NearDegreeHistogram() *metrics.IntHistogram {
	h := metrics.NewIntHistogram()
	for i, n := range c.nodes {
		if c.alive[i] {
			h.Add(n.NearDegree())
		}
	}
	return h
}

// OverlayGraph snapshots the overlay as an undirected graph: an edge per
// link the lower-ID endpoint holds. A link only the higher-ID endpoint
// holds is left out.
func (c *Cluster) OverlayGraph() *graph.Undirected {
	g := graph.NewUndirected(len(c.nodes))
	for i, n := range c.nodes {
		for _, nb := range n.Neighbors() {
			if int(nb.ID) > i {
				g.AddEdge(i, int(nb.ID))
			}
		}
	}
	return g
}

// LargestComponentRatio returns q = |largest component| / |live nodes|
// over the overlay restricted to live nodes (Figure 6's metric).
func (c *Cluster) LargestComponentRatio() float64 {
	largest, alive := c.OverlayGraph().LargestComponent(c.alive)
	if alive == 0 {
		return 0
	}
	return float64(largest) / float64(alive)
}

// AvgOverlayLinkLatency returns the mean one-way latency over distinct
// overlay links among live nodes (Figure 5b, "overlay" curve).
func (c *Cluster) AvgOverlayLinkLatency() time.Duration {
	var sum time.Duration
	count := 0
	for i, n := range c.nodes {
		if !c.alive[i] {
			continue
		}
		for _, nb := range n.Neighbors() {
			j := int(nb.ID)
			if j > i && c.alive[j] {
				sum += c.OneWay(i, j)
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / time.Duration(count)
}

// AvgTreeLinkLatency returns the mean one-way latency over tree links
// (parent edges) among live nodes (Figure 5b, "tree" curve).
func (c *Cluster) AvgTreeLinkLatency() time.Duration {
	var sum time.Duration
	count := 0
	for i, n := range c.nodes {
		if !c.alive[i] {
			continue
		}
		p := n.Parent()
		if p == core.None || !c.alive[int(p)] {
			continue
		}
		sum += c.OneWay(i, int(p))
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / time.Duration(count)
}

// TreeSpans reports whether parent pointers connect every live node to the
// root (i.e. the tree covers the system).
func (c *Cluster) TreeSpans(root int) bool {
	uf := graph.NewUnionFind(len(c.nodes))
	for i, n := range c.nodes {
		if !c.alive[i] {
			continue
		}
		if p := n.Parent(); p != core.None && c.alive[int(p)] {
			uf.Union(i, int(p))
		}
	}
	for i := range c.nodes {
		if c.alive[i] && !uf.Connected(i, root) {
			return false
		}
	}
	return true
}

// SumCounters aggregates all nodes' protocol counters.
func (c *Cluster) SumCounters() core.Counters {
	var t core.Counters
	for _, n := range c.nodes {
		t.Add(n.Stats())
	}
	return t
}
