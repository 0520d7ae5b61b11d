package netsim

import (
	"gocast/internal/churn"
	"gocast/internal/core"
)

// StartChurn schedules the plan's events on the simulation clock, relative
// to now; a churn.Runner picks each event's target at fire time. The
// returned stats fill in as the simulation advances.
func (c *Cluster) StartChurn(opts churn.Options) *churn.Stats {
	r := churn.NewRunner(churnTarget{c}, opts)
	for _, ev := range opts.Plan.Schedule() {
		kind := ev.Kind
		c.Engine.After(ev.At, func() { r.Step(kind) })
	}
	return &r.Stats
}

// churnTarget adapts a Cluster to churn.Cluster.
type churnTarget struct{ *Cluster }

func (t churnTarget) Size() int   { return t.Nodes() }
func (t churnTarget) Crash(i int) { t.Kill(i) }
func (t churnTarget) Restart(i, contact int) bool {
	t.Cluster.Restart(i, contact)
	return true
}

// Kill fails node i immediately: its timers stop, queued and future
// traffic to and from it is dropped. If detection is enabled its overlay
// neighbors learn of the break after DetectionDelay.
func (c *Cluster) Kill(i int) {
	if !c.alive[i] {
		return
	}
	neighbors := c.nodes[i].Neighbors()
	c.alive[i] = false
	c.detachedAt[i] = -1
	c.nodes[i].Stop()
	if !c.detect {
		return
	}
	genAtKill := c.gen[i]
	at := c.Engine.Now() + c.opts.DetectionDelay
	for _, nb := range neighbors {
		peer := int(nb.ID)
		// The notification is a control event, like the Kill that arms
		// it: it fires at a fence on the control engine, ordered against
		// other control events (a stream injection on the same instant)
		// by scheduling order, and before any node event of that instant,
		// on both engines alike.
		c.Engine.Schedule(at, func() {
			// Skip if the dead node already restarted: the peer's broken
			// connection belonged to the old life, and the new life holds
			// (or is negotiating) a distinct one.
			if c.alive[peer] && c.gen[i] == genAtKill {
				c.nodes[peer].PeerDown(core.NodeID(i))
			}
		})
	}
}

// KillFraction kills frac*n uniformly random live nodes, n live nodes
// rounded to the nearest whole node, and returns their indexes.
func (c *Cluster) KillFraction(frac float64) []int {
	var live []int
	for i, a := range c.alive {
		if a {
			live = append(live, i)
		}
	}
	k := int(frac*float64(len(live)) + 0.5)
	c.rng.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
	killed := live[:k]
	for _, i := range killed {
		c.Kill(i)
	}
	return killed
}

// AddNode grows the system at runtime: a fresh node is created, started,
// and joins the overlay through `contact` using the join protocol
// (Section 2.2.1). It returns the new node's index.
func (c *Cluster) AddNode(contact int) int {
	i := len(c.nodes)
	c.siteOf = append(c.siteOf, i%c.Matrix.Sites())
	c.shardOf = append(c.shardOf, c.cachedSiteShard[i%c.Matrix.Sites()])
	c.keySeq = append(c.keySeq, 0)
	c.alive = append(c.alive, true)
	c.joined = append(c.joined, c.Engine.Now())
	c.firstJoin = append(c.firstJoin, c.Engine.Now())
	c.incar = append(c.incar, 0)
	c.gen = append(c.gen, 0)
	c.detachedAt = append(c.detachedAt, -1)
	// Extend existing delivery rows so the newcomer can be accounted for
	// messages injected after it joined (rows injected before stay -1).
	for m := range c.recv {
		c.recv[m] = append(c.recv[m], -1)
	}
	c.nodes = append(c.nodes, nil)
	n := c.buildNode(i)
	c.nodes[i] = n
	n.SetLandmarks(c.landmarkEntries())
	n.Start()
	n.Join(core.Entry{ID: core.NodeID(contact), Inc: c.incar[contact]})
	return i
}

// Restart revives a dead node under the same ID with a bumped incarnation:
// a brand-new protocol instance (empty view, empty overlay, fresh delivery
// dedup state) that re-measures landmarks and rejoins through `contact`.
// Timers and in-flight sends belonging to the dead past life are inert.
func (c *Cluster) Restart(i, contact int) {
	if c.alive[i] {
		panic("netsim: Restart of a live node")
	}
	c.incar[i]++
	c.gen[i]++
	c.restarts++
	c.alive[i] = true
	c.joined[i] = c.Engine.Now()
	// Time-to-reattach after a restart is a tree-repair latency.
	c.detachedAt[i] = c.Engine.Now()
	n := c.buildNode(i)
	c.nodes[i] = n
	n.SetLandmarks(c.landmarkEntries())
	n.Start()
	if contact >= 0 && contact < len(c.nodes) && c.alive[contact] {
		n.Join(core.Entry{ID: core.NodeID(contact), Inc: c.incar[contact]})
	}
}

// Restarts returns how many node restarts the cluster has performed.
func (c *Cluster) Restarts() int { return c.restarts }

// Incarnation returns node i's current incarnation number.
func (c *Cluster) Incarnation(i int) uint32 { return c.incar[i] }

// Leave makes node i depart gracefully (Drop notifications to neighbors)
// and marks it dead.
func (c *Cluster) Leave(i int) {
	if !c.alive[i] {
		return
	}
	c.nodes[i].Leave()
	c.alive[i] = false
	c.detachedAt[i] = -1
}
