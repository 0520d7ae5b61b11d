package core

import (
	"time"

	"gocast/internal/dtrace"
)

// Tree construction (Section 2.3). The tree is embedded in the overlay:
// tree links are overlay links on latency-shortest paths from a conceptual
// root. The root floods a heartbeat wave over every overlay link every
// HeartbeatPeriod; each wave rebuilds the shortest-path tree from scratch
// (which also heals any damage), and between waves nodes react to improved
// distance advertisements and to link changes. Root takeover is ordered by
// (epoch, smaller node ID).

// scheduleHeartbeat arms the root's wave timer.
func (n *Node) scheduleHeartbeat(d time.Duration) {
	n.heartbeat.Stop()
	n.heartbeat = n.env.After(d, n.tickHeartbeat)
}

// heartbeatTick floods a new wave if this node still believes it is root.
func (n *Node) heartbeatTick() {
	if !n.running || !n.cfg.EnableTree || n.treeRoot != n.id {
		return
	}
	n.scheduleHeartbeat(n.cfg.HeartbeatPeriod)
	if !n.maintenance {
		return
	}
	n.treeWave++
	n.lastWaveAt = n.env.Now()
	n.parent = None
	n.distToRoot = 0
	n.advertiseTree(None)
}

// advertiseTree sends the node's current tree distance to all overlay
// neighbors except `skip`.
func (n *Node) advertiseTree(skip NodeID) {
	if n.distToRoot == distInfinity {
		return
	}
	adv := &TreeAdvert{Root: n.treeRoot, Epoch: n.treeEpoch, Wave: n.treeWave, Dist: n.distToRoot}
	for _, id := range n.neighbors.ids {
		if id == skip {
			continue
		}
		n.stats.TreeAdverts++
		n.env.Send(id, adv)
	}
}

// advertRank orders tree advertisements: higher epoch wins; within an
// epoch the smaller root ID wins (resolving concurrent takeovers); within
// a root, the higher wave is newer.
func advertRank(epoch uint32, root NodeID, wave uint32) [3]int64 {
	return [3]int64{int64(epoch), -int64(root), int64(wave)}
}

func rankLess(a, b [3]int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// handleTreeAdvert processes a distance advertisement from a neighbor.
func (n *Node) handleTreeAdvert(from NodeID, m *TreeAdvert) {
	if !n.cfg.EnableTree {
		return
	}
	nb := n.neighbors.get(from)
	if nb == nil {
		return // adverts only travel over overlay links
	}
	nb.advert = *m
	nb.hasAdvert = true
	cur := advertRank(n.treeEpoch, n.treeRoot, n.treeWave)
	got := advertRank(m.Epoch, m.Root, m.Wave)
	if rankLess(got, cur) {
		return // stale
	}
	d := m.Dist + n.linkLatency(nb)
	if rankLess(cur, got) {
		// New wave (or new root): adopt unconditionally.
		if n.treeRoot == n.id && m.Root != n.id {
			// Someone with higher rank is root; stand down.
			n.heartbeat.Stop()
		}
		oldRoot := n.treeRoot
		n.treeEpoch, n.treeRoot, n.treeWave = m.Epoch, m.Root, m.Wave
		n.lastWaveAt = n.env.Now()
		n.distToRoot = d
		n.lostDist = 0
		if n.obs != nil && oldRoot != m.Root {
			n.observeTree(dtrace.KindRoot, m.Root, oldRoot, false)
		}
		n.setParent(from)
		n.advertiseTree(None)
		return
	}
	// Same wave: adopt only strict improvements. While detached after a
	// parent loss, additionally require the offer to be no worse than the
	// lost distance: anything larger could be our own descendant still
	// advertising a path through us.
	if d < n.distToRoot {
		if n.distToRoot == distInfinity && n.lostDist > 0 && d > n.lostDist {
			return
		}
		n.distToRoot = d
		n.lostDist = 0
		n.setParent(from)
		n.advertiseTree(None)
	}
}

// linkLatency estimates one-way latency of the link to a neighbor.
func (n *Node) linkLatency(nb *neighbor) time.Duration {
	if nb.rtt > 0 {
		return nb.rtt / 2
	}
	// Unmeasured link: assume an average-ish wide-area latency so it is
	// usable but not preferred.
	return 100 * time.Millisecond
}

// setParent switches the tree parent, notifying both the old and the new
// parent so their children sets stay accurate.
func (n *Node) setParent(p NodeID) {
	if n.parent == p {
		return
	}
	old := n.parent
	if old != None {
		if n.neighbors.has(old) {
			n.env.Send(old, &TreeParent{On: false})
		}
	}
	n.parent = p
	if p != None {
		n.env.Send(p, &TreeParent{On: true})
	}
	if n.obs != nil {
		n.observeTree(dtrace.KindParent, p, old, p != None && n.repairing)
	}
	if p != None {
		n.repairing = false
	}
}

// observeTree reports a parent or root change from old to cur; repaired
// marks one that re-attaches the node after it lost its parent, which
// carries the time spent detached.
func (n *Node) observeTree(kind dtrace.Kind, cur, old NodeID, repaired bool) {
	s := dtrace.Span{Kind: kind, From: int32(cur), Aux: int64(old), End: n.env.Now()}
	s.Start = s.End
	if repaired {
		s.Start, s.Aux2 = n.detachedAt, 1
	}
	n.observe(s)
}

// handleTreeParent maintains the children set.
func (n *Node) handleTreeParent(from NodeID, m *TreeParent) {
	if nb := n.neighbors.get(from); nb != nil {
		nb.child = m.On
	}
}

// treeOnLinkUp extends the tree over a freshly created overlay link by
// advertising our distance to the new neighbor.
func (n *Node) treeOnLinkUp(peer NodeID) {
	if !n.cfg.EnableTree || n.distToRoot == distInfinity {
		return
	}
	n.stats.TreeAdverts++
	n.env.Send(peer, &TreeAdvert{Root: n.treeRoot, Epoch: n.treeEpoch, Wave: n.treeWave, Dist: n.distToRoot})
}

// treeOnLinkDown repairs tree state after an overlay link disappears.
func (n *Node) treeOnLinkDown(peer NodeID) {
	if n.parent != peer {
		return
	}
	n.parent = None
	if n.obs != nil {
		n.observeTree(dtrace.KindParent, None, peer, false)
	}
	if !n.cfg.EnableTree {
		return
	}
	n.repairing = true
	n.detachedAt = n.env.Now()
	old := n.distToRoot
	n.distToRoot = distInfinity
	// Re-pick from cached same-wave advertisements. Only accept paths
	// strictly better than our old distance: a cached advert with a larger
	// distance may come from our own descendant and would form a loop
	// (healed at the next wave anyway, but avoid when we can).
	best := None
	var bestDist time.Duration = distInfinity
	for _, nb := range n.neighbors.nbs {
		if !nb.hasAdvert {
			continue
		}
		a := nb.advert
		if a.Epoch != n.treeEpoch || a.Root != n.treeRoot || a.Wave != n.treeWave {
			continue
		}
		if d := a.Dist + n.linkLatency(nb); d < bestDist && d <= old {
			bestDist, best = d, nb.entry.ID
		}
	}
	if best != None {
		n.distToRoot = bestDist
		n.setParent(best)
		n.advertiseTree(None)
		return
	}
	// No cached alternative: solicit fresh adverts (triggered update) so
	// re-attachment does not have to wait for the next heartbeat wave.
	n.lostDist = old
	req := &TreeAdvertReq{}
	for _, id := range n.neighbors.ids {
		n.env.Send(id, req)
	}
}

// handleTreeAdvertReq answers a detached neighbor with our current state.
func (n *Node) handleTreeAdvertReq(from NodeID) {
	if !n.cfg.EnableTree || n.distToRoot == distInfinity {
		return
	}
	if !n.neighbors.has(from) {
		return
	}
	n.stats.TreeAdverts++
	n.env.Send(from, &TreeAdvert{Root: n.treeRoot, Epoch: n.treeEpoch, Wave: n.treeWave, Dist: n.distToRoot})
}

// checkRootLiveness self-promotes when no wave has been observed for
// RootTimeout (+ a per-node jitter to avoid synchronized takeovers). The
// paper: "If the root fails, one of its neighbors will take over its
// role"; epoch/ID ordering resolves concurrent promotions.
func (n *Node) checkRootLiveness() {
	if !n.cfg.EnableTree || n.treeRoot == n.id {
		return
	}
	if n.env.Now()-n.lastWaveAt <= n.cfg.RootTimeout+n.rootJitter {
		return
	}
	oldRoot := n.treeRoot
	n.treeEpoch++
	n.treeRoot = n.id
	n.treeWave = 0
	n.parent = None
	n.distToRoot = 0
	n.lastWaveAt = n.env.Now()
	n.stats.RootTakeovers++
	if n.obs != nil {
		n.observeTree(dtrace.KindRoot, n.id, oldRoot, n.repairing)
	}
	n.repairing = false
	n.scheduleHeartbeat(0)
}

// Parent returns the node's tree parent (None at the root or when
// detached).
func (n *Node) Parent() NodeID { return n.parent }

// Root returns the node's current view of the tree root.
func (n *Node) Root() NodeID { return n.treeRoot }

// DistToRoot returns the node's latency distance to the root, or
// (true, d) when attached.
func (n *Node) DistToRoot() (time.Duration, bool) {
	if n.distToRoot == distInfinity {
		return 0, false
	}
	return n.distToRoot, true
}

// TreeNeighbors returns the node's current tree links (parent plus
// children) in a deterministic order.
func (n *Node) TreeNeighbors() []NodeID {
	return n.appendTreeNeighbors(make([]NodeID, 0, n.neighbors.len()+1))
}

// appendTreeNeighbors appends the tree links to dst in TreeNeighbors
// order, so the forwarding paths can reuse a scratch slice.
func (n *Node) appendTreeNeighbors(dst []NodeID) []NodeID {
	if n.parent != None {
		dst = append(dst, n.parent)
	}
	for _, nb := range n.neighbors.nbs {
		if nb.child {
			dst = append(dst, nb.entry.ID)
		}
	}
	return dst
}

// TreeLinkRTTs returns the RTTs of the node's tree links that are still
// overlay links (used by the link-quality experiments).
func (n *Node) TreeLinkRTTs() []time.Duration {
	var out []time.Duration
	for _, id := range n.TreeNeighbors() {
		if nb := n.neighbors.get(id); nb != nil {
			out = append(out, nb.rtt)
		}
	}
	return out
}
