package core

import (
	"time"

	"gocast/internal/dtrace"
)

// Overlay maintenance (Section 2.2). Every MaintainPeriod a node runs one
// maintenance cycle: failure detection, the random-neighbor protocol
// (2.2.2), and the proximity-aware neighbor protocol (2.2.3). Neighbor
// additions are asynchronous multi-step operations (ping → evaluate →
// AddRequest → AddReply), tracked in pendingAdd.

// addPurpose distinguishes why an AddRequest was issued.
type addPurpose uint8

const (
	addFillRandom addPurpose = iota + 1
	addNearbyGrow
	addNearbyReplace
	addRebalanceLink
)

type addCtx struct {
	target    Entry
	kind      LinkKind
	purpose   addPurpose
	rtt       time.Duration
	startedAt time.Duration
	// rebalanceFrom is the node that asked us to create this link
	// (operation 1 of 2.2.2); it gets a RebalanceReply when we learn the
	// outcome.
	rebalanceFrom NodeID
}

type rebalanceCtx struct {
	via       NodeID // neighbor Y asked to link to target Z
	target    NodeID // Z
	startedAt time.Duration
}

const opTimeout = 3 * time.Second

// maintainTick is the periodic maintenance cycle.
func (n *Node) maintainTick() {
	if !n.running {
		return
	}
	n.maintainTimer = n.env.After(n.cfg.MaintainPeriod, n.tickMaintain)
	if !n.maintenance {
		return
	}
	n.expirePings()
	n.expireOps()
	n.checkNeighborLiveness()
	n.maintainRandom()
	n.maintainNearby()
	n.checkRootLiveness()
}

// expireOps clears stuck add/rebalance operations.
func (n *Node) expireOps() {
	now := n.env.Now()
	var expired []NodeID
	n.pendingAdd.each(func(_ NodeID, ctx *addCtx) {
		if now-ctx.startedAt > opTimeout {
			expired = append(expired, ctx.target.ID)
		}
	})
	sortNodeIDs(expired)
	for _, id := range expired {
		ctx, _ := n.pendingAdd.get(id)
		n.pendingAdd.del(id)
		if ctx.purpose == addRebalanceLink {
			n.env.Send(ctx.rebalanceFrom, ctl(n, RebalanceReply{Target: id, OK: false}))
		}
	}
	if n.rebalance != nil && now-n.rebalance.startedAt > opTimeout {
		n.rebalance = nil
	}
}

// checkNeighborLiveness removes neighbors that have been silent for too
// long; gossips double as keepalives, so a healthy neighbor is heard from
// roughly every degree×GossipPeriod.
func (n *Node) checkNeighborLiveness() {
	now := n.env.Now()
	var dead []NodeID
	for _, nb := range n.neighbors.nbs {
		if now-nb.lastHeard > n.cfg.NeighborTimeout {
			dead = append(dead, nb.entry.ID)
		}
	}
	for _, id := range dead {
		// Quarantine locally so in-flight gossip cannot immediately
		// re-teach us the dead entry; not spread, since silence may be a
		// partition rather than a death.
		n.recordObit(id, n.knownInc(id), false)
		n.removeNeighbor(id, false)
	}
}

// abortOpsWith clears operations that involve a failed peer.
func (n *Node) abortOpsWith(peer NodeID) {
	n.pendingAdd.del(peer)
	if n.rebalance != nil && (n.rebalance.via == peer || n.rebalance.target == peer) {
		n.rebalance = nil
	}
}

// maintainRandom enforces the random-degree rules of Section 2.2.2:
// converge D_rand to C_rand or C_rand+1.
func (n *Node) maintainRandom() {
	drand := n.degreeOf(Random)
	switch {
	case drand < n.cfg.CRand:
		n.tryFillRandom()
	case drand >= n.cfg.CRand+2:
		n.tryRebalanceRandom()
	case drand == n.cfg.CRand+1:
		// Operation 2: drop the link to a random neighbor that itself has
		// more than C_rand random neighbors, reducing both degrees while
		// keeping both >= C_rand.
		for _, nb := range n.neighbors.nbs {
			if nb.kind == Random && nb.degKnown && int(nb.deg.Rand) > n.cfg.CRand {
				n.dropLink(nb.entry.ID)
				return
			}
		}
	}
}

// tryFillRandom starts adding one random neighbor.
func (n *Node) tryFillRandom() {
	i := n.randomMember(func(id NodeID) bool { return !n.linkedOrPending(id) })
	if i < 0 {
		return
	}
	id := n.members.recs[i].id
	n.sendPing(id, pingCtx{target: id, purpose: pingProbeAddRandom})
}

// resumeAddRandom continues a random add after the probe pong.
func (n *Node) resumeAddRandom(e Entry, rtt time.Duration, deg Degrees) {
	if n.degreeOf(Random) >= n.cfg.CRand {
		return // already fixed meanwhile
	}
	if n.neighbors.has(e.ID) {
		return
	}
	if int(deg.Rand) >= n.cfg.CRand+n.cfg.DegreeSlack {
		return // target too loaded; try another next cycle
	}
	n.requestAdd(e, Random, rtt, addFillRandom, None)
}

// tryRebalanceRandom runs operation 1 of Section 2.2.2: ask random
// neighbor Y to link to random neighbor Z, then drop both links, cutting
// our random degree by two without changing theirs.
func (n *Node) tryRebalanceRandom() {
	if n.rebalance != nil {
		return
	}
	rands := n.randScratch[:0]
	for _, nb := range n.neighbors.nbs {
		if nb.kind == Random {
			rands = append(rands, nb)
		}
	}
	n.randScratch = rands
	if len(rands) < 2 {
		return
	}
	i := n.env.Rand(len(rands))
	j := n.env.Rand(len(rands) - 1)
	if j >= i {
		j++
	}
	y, z := rands[i], rands[j]
	n.rebalance = &rebalanceCtx{via: y.entry.ID, target: z.entry.ID, startedAt: n.env.Now()}
	n.env.Send(y.entry.ID, ctl(n, Rebalance{Target: z.entry}))
}

// handleRebalance is Y's side of operation 1: establish a random link to
// Target on X's behalf.
func (n *Node) handleRebalance(from NodeID, m *Rebalance) {
	t := m.Target
	if t.ID == n.id || t.ID == None || n.staleSender(t) {
		n.env.Send(from, ctl(n, RebalanceReply{Target: t.ID, OK: false}))
		return
	}
	if n.neighbors.has(t.ID) {
		// Already linked to Z; X can still drop its two links without
		// degree loss for us.
		n.env.Send(from, ctl(n, RebalanceReply{Target: t.ID, OK: true}))
		return
	}
	if n.pendingAdd.has(t.ID) {
		n.env.Send(from, ctl(n, RebalanceReply{Target: t.ID, OK: false}))
		return
	}
	n.learnEntry(t)
	rtt, _ := n.measuredRTT(t.ID)
	n.requestAddFull(t, Random, rtt, addRebalanceLink, from)
}

// handleRebalanceReply is X's side: on success drop the links to both Y
// and Z.
func (n *Node) handleRebalanceReply(from NodeID, m *RebalanceReply) {
	rb := n.rebalance
	if rb == nil || rb.via != from || rb.target != m.Target {
		return
	}
	n.rebalance = nil
	if !m.OK {
		return
	}
	if n.degreeOf(Random) < n.cfg.CRand+2 {
		return // degree already fell; keep the links
	}
	n.dropLink(rb.via)
	n.dropLink(rb.target)
	n.stats.Rebalances++
}

// maintainNearby runs the three sub-protocols of Section 2.2.3.
func (n *Node) maintainNearby() {
	if n.cfg.CNear == 0 {
		return
	}
	dnear := n.degreeOf(Nearby)
	if dnear >= n.cfg.CNear+n.cfg.DropTrigger {
		n.dropExcessNearby(dnear)
		return
	}
	if dnear < n.cfg.CNear {
		n.tryAddNearby()
		return
	}
	n.tryReplaceNearby()
}

// dropExcessNearby drops the longest-latency nearby links whose peers are
// not at dangerously low degree (condition C1), down to C_near.
func (n *Node) dropExcessNearby(dnear int) {
	for dnear > n.cfg.CNear {
		victim := n.pickReplaceVictim(None)
		if victim == None {
			return
		}
		n.dropLink(victim)
		dnear--
	}
}

// pickReplaceVictim chooses the nearby neighbor with the longest RTT among
// those satisfying C1 (D_near(U) >= C_near - 1), excluding `exclude`.
func (n *Node) pickReplaceVictim(exclude NodeID) NodeID {
	victim := None
	var worst time.Duration = -1
	for _, nb := range n.neighbors.nbs {
		if nb.kind != Nearby || nb.entry.ID == exclude {
			continue
		}
		if nb.degKnown && int(nb.deg.Near) < n.cfg.CNear-n.cfg.C1Lower {
			continue // C1: dropping would endanger connectivity
		}
		if nb.rtt > worst {
			worst = nb.rtt
			victim = nb.entry.ID
		}
	}
	return victim
}

// tryAddNearby adds at most one nearby neighbor per cycle when below
// target.
func (n *Node) tryAddNearby() {
	cand, ok := n.nextCandidate(n.linkedOrPending)
	if !ok {
		return
	}
	if rtt, known := n.measuredRTT(cand.ID); known {
		n.resumeAddNearby(cand, rtt, Degrees{}) // degrees re-checked by acceptor
		return
	}
	n.sendPing(cand.ID, pingCtx{target: cand.ID, purpose: pingProbeAddNearby})
}

// resumeAddNearby continues a grow-add after the probe pong. The acceptor
// enforces the cap and worst-link conditions; the initiator only avoids
// obviously futile requests.
func (n *Node) resumeAddNearby(e Entry, rtt time.Duration, deg Degrees) {
	if n.degreeOf(Nearby) >= n.cfg.CNear {
		return
	}
	if n.neighbors.has(e.ID) {
		return
	}
	if int(deg.Near) >= n.cfg.CNear+n.cfg.DegreeSlack {
		return // C2 at the candidate
	}
	n.requestAdd(e, Nearby, rtt, addNearbyGrow, None)
}

// tryReplaceNearby performs the replacement sweep: measure the RTT to one
// candidate per cycle and switch to it if conditions C1-C4 hold.
func (n *Node) tryReplaceNearby() {
	if n.hasOutstandingProbe(pingProbeReplace) {
		return
	}
	cand, ok := n.nextCandidate(n.linkedOrPending)
	if !ok {
		return
	}
	n.sendPing(cand.ID, pingCtx{target: cand.ID, purpose: pingProbeReplace})
}

// linkedOrPending reports whether id is a neighbor or has an add in
// flight: the candidate filter of the add and replace sweeps.
func (n *Node) linkedOrPending(id NodeID) bool {
	return n.neighbors.has(id) || n.pendingAdd.has(id)
}

func (n *Node) hasOutstandingProbe(p pingPurpose) bool {
	for _, ctx := range n.pings {
		if ctx.purpose == p {
			return true
		}
	}
	return false
}

// resumeReplace evaluates conditions C1-C4 with the freshly measured RTT
// and, if they hold, requests the link to Q; the current worst neighbor U
// is dropped when the add is accepted.
func (n *Node) resumeReplace(q Entry, rtt time.Duration, deg Degrees) {
	if n.neighbors.has(q.ID) {
		return
	}
	// C1: there must be a droppable neighbor U (picked again at accept
	// time, since the neighborhood may change in between).
	u := n.pickReplaceVictim(q.ID)
	if u == None {
		return
	}
	// C2: D_near(Q) < C_near + 5.
	if int(deg.Near) >= n.cfg.CNear+n.cfg.DegreeSlack {
		return
	}
	// C3: if Q is at/above target, the new link must beat Q's worst.
	if int(deg.Near) >= n.cfg.CNear && deg.MaxNearbyRTT > 0 && rtt >= deg.MaxNearbyRTT {
		return
	}
	// C4: Q must be significantly better than U.
	if float64(rtt) > n.cfg.ReplaceRatio*float64(n.neighbors.get(u).rtt) {
		return
	}
	n.requestAdd(q, Nearby, rtt, addNearbyReplace, None)
}

// requestAdd issues an AddRequest and records the pending operation.
func (n *Node) requestAdd(e Entry, kind LinkKind, rtt time.Duration, purpose addPurpose, rebalanceFrom NodeID) {
	n.requestAddFull(e, kind, rtt, purpose, rebalanceFrom)
}

func (n *Node) requestAddFull(e Entry, kind LinkKind, rtt time.Duration, purpose addPurpose, rebalanceFrom NodeID) {
	n.pendingAdd.put(e.ID, addCtx{
		target:        e,
		kind:          kind,
		purpose:       purpose,
		rtt:           rtt,
		startedAt:     n.env.Now(),
		rebalanceFrom: rebalanceFrom,
	})
	n.stats.AddsSent++
	n.env.Send(e.ID, ctl(n, AddRequest{
		From:         n.selfEntry(),
		LinkKind:     kind,
		RTT:          rtt,
		Degrees:      n.degrees(),
		ForRebalance: purpose == addRebalanceLink,
	}))
}

// handleAddRequest decides whether to accept a new neighbor, enforcing
// the degree caps of Section 2.2.1 and the worst-link condition.
func (n *Node) handleAddRequest(from NodeID, m *AddRequest) {
	if n.staleSender(m.From) {
		// A dead past life must never be linked to: reject outright.
		n.env.Send(from, ctl(n, AddReply{
			From:         n.selfEntry(),
			LinkKind:     m.LinkKind,
			Accepted:     false,
			RTT:          m.RTT,
			Degrees:      n.degrees(),
			ForRebalance: m.ForRebalance,
		}))
		return
	}
	n.learnEntry(m.From)
	accepted := false
	if n.neighbors.has(from) {
		accepted = true // idempotent: link exists
	} else {
		switch m.LinkKind {
		case Random:
			accepted = n.degreeOf(Random) < n.cfg.CRand+n.cfg.DegreeSlack
		case Nearby:
			dnear := n.degreeOf(Nearby)
			accepted = dnear < n.cfg.CNear+n.cfg.DegreeSlack
			if accepted && dnear >= n.cfg.CNear && m.RTT > 0 {
				// The prospective link must not be worse than the worst
				// nearby link we already maintain.
				if worst := n.maxNearbyRTT(); worst > 0 && m.RTT >= worst {
					accepted = false
				}
			}
		}
		if accepted {
			n.addNeighbor(m.From, m.LinkKind, m.RTT)
			if nb := n.neighbors.get(from); nb != nil {
				nb.deg = m.Degrees
				nb.degKnown = true
			}
			n.stats.AddsAccepted++
		} else {
			n.stats.AddsRejected++
		}
	}
	n.env.Send(from, ctl(n, AddReply{
		From:         n.selfEntry(),
		LinkKind:     m.LinkKind,
		Accepted:     accepted,
		RTT:          m.RTT,
		Degrees:      n.degrees(),
		ForRebalance: m.ForRebalance,
	}))
}

// handleAddReply finishes a pending add.
func (n *Node) handleAddReply(from NodeID, m *AddReply) {
	if n.staleSender(m.From) {
		return // a dead past life's acceptance must not install a link
	}
	ctx, ok := n.pendingAdd.get(from)
	if !ok {
		if m.Accepted {
			// We no longer want this link (op expired); tear it down so
			// the acceptor is not left with a half-open link.
			n.env.Send(from, ctl(n, Drop{Degrees: n.degrees()}))
		}
		return
	}
	n.pendingAdd.del(from)
	if !m.Accepted {
		if ctx.purpose == addRebalanceLink {
			n.env.Send(ctx.rebalanceFrom, ctl(n, RebalanceReply{Target: from, OK: false}))
		}
		return
	}
	if !n.neighbors.has(from) {
		n.addNeighbor(m.From, ctx.kind, ctx.rtt)
	}
	if nb := n.neighbors.get(from); nb != nil {
		nb.deg = m.Degrees
		nb.degKnown = true
		if nb.rtt == 0 {
			// Link created without a prior measurement (rebalance):
			// measure it now so tree costs and C-conditions have data.
			n.sendPing(from, pingCtx{target: from, purpose: pingMeasureLink})
		}
	}
	switch ctx.purpose {
	case addNearbyReplace:
		if u := n.pickReplaceVictim(from); u != None && n.degreeOf(Nearby) > n.cfg.CNear {
			n.dropLink(u)
		}
	case addRebalanceLink:
		n.env.Send(ctx.rebalanceFrom, ctl(n, RebalanceReply{Target: from, OK: true}))
	}
}

// dropLink removes the link to peer and notifies it.
func (n *Node) dropLink(peer NodeID) { n.removeNeighbor(peer, true) }

// handleDrop removes the link at the receiving end. A departing Drop
// (graceful leave) additionally records a spreading obituary so the member
// is quarantined group-wide, not merely unlinked here.
func (n *Node) handleDrop(from NodeID, m *Drop) {
	if m.Departing {
		n.recordObit(from, n.knownInc(from), true)
	}
	n.removeNeighbor(from, false)
}

// addNeighbor installs an overlay link.
func (n *Node) addNeighbor(e Entry, kind LinkKind, rtt time.Duration) {
	if e.ID == n.id || e.ID == None {
		return
	}
	if n.neighbors.has(e.ID) {
		return
	}
	n.learnEntry(e)
	if rtt == 0 {
		if known, _ := n.measuredRTT(e.ID); known > 0 {
			rtt = known
		}
	}
	nb := &neighbor{entry: e, kind: kind, rtt: rtt, lastHeard: n.env.Now(), slot: n.allocSlot(e.ID)}
	n.neighbors.add(nb)
	n.degCacheOK = false
	if nb.slot != invalidSlot {
		n.liveMask |= 1 << nb.slot
	}
	n.stats.LinkAdds++
	if n.emits(dtrace.KindLinkUp) {
		n.observeLink(dtrace.KindLinkUp, e.ID, kind, rtt)
	}
	n.reannounceTo(e.ID)
	n.treeOnLinkUp(e.ID)
}

// removeNeighbor uninstalls an overlay link; if notify is set the peer is
// told to drop its end.
func (n *Node) removeNeighbor(peer NodeID, notify bool) {
	i := n.neighbors.index(peer)
	if i < 0 {
		return
	}
	nb := n.neighbors.nbs[i]
	n.neighbors.removeAt(i)
	if n.gossipIdx > i {
		n.gossipIdx--
	}
	n.degCacheOK = false
	if nb.slot != invalidSlot {
		n.liveMask &^= 1 << nb.slot
	}
	n.retireSlot(peer, nb.slot)
	n.stats.LinkDrops++
	if n.emits(dtrace.KindLinkDown) {
		n.observeLink(dtrace.KindLinkDown, peer, nb.kind, nb.rtt)
	}
	if notify {
		n.env.Send(peer, ctl(n, Drop{Degrees: n.degrees()}))
	}
	n.treeOnLinkDown(peer)
}

// observeLink reports an overlay link appearing or vanishing.
func (n *Node) observeLink(kind dtrace.Kind, peer NodeID, lk LinkKind, rtt time.Duration) {
	now := n.env.Now()
	n.observe(dtrace.Span{Kind: kind, From: int32(peer), Start: now, End: now, Aux: int64(lk), Aux2: int64(rtt)})
}

// NeighborInfo is an introspection record of one overlay link.
type NeighborInfo struct {
	ID   NodeID
	Kind LinkKind
	RTT  time.Duration
	// Inc is the peer incarnation the link was established under.
	Inc uint32
}

// Neighbors returns the node's current overlay links in a deterministic
// order (link creation order).
func (n *Node) Neighbors() []NeighborInfo {
	out := make([]NeighborInfo, 0, n.neighbors.len())
	for _, nb := range n.neighbors.nbs {
		out = append(out, NeighborInfo{ID: nb.entry.ID, Kind: nb.kind, RTT: nb.rtt, Inc: nb.entry.Inc})
	}
	return out
}

// sortNodeIDs sorts a small NodeID slice ascending.
func sortNodeIDs(s []NodeID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Degree returns the node's total overlay degree.
func (n *Node) Degree() int { return n.neighbors.len() }

// RandDegree returns the number of random links.
func (n *Node) RandDegree() int { return n.degreeOf(Random) }

// NearDegree returns the number of nearby links.
func (n *Node) NearDegree() int { return n.degreeOf(Nearby) }

// AddNeighborDirect wires an overlay link without the handshake. Both
// endpoints must be wired symmetrically; it is intended for simulation
// bootstrap (the paper initializes each node with C_degree/2 random
// connections) and for tests.
func (n *Node) AddNeighborDirect(e Entry, kind LinkKind, rtt time.Duration) {
	n.addNeighbor(e, kind, rtt)
}
