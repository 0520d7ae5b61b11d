package core

import (
	"math/bits"
	"time"

	"gocast/internal/dtrace"
	"gocast/internal/store"
)

// Message dissemination (Section 2.1). Multicast messages propagate
// unconditionally along tree links. In the background every GossipPeriod
// the node sends a summary of recently received message IDs to one overlay
// neighbor chosen round-robin, excluding IDs heard from that neighbor;
// receivers pull missing messages, optionally waiting until the message is
// at least PullDelay old so the tree gets the first chance.
//
// Payload buffering, retention, and reclamation live in the node's
// store.Memory (internal/store): this file keeps only the per-neighbor
// gossip bookkeeping and drives the store's stability-based GC — a payload
// becomes reclaimable once every current overlay neighbor has heard of the
// message, with the store's age cap as the fallback for neighbors that
// never acknowledge.

// msgState tracks the gossip bookkeeping of one multicast message at this
// node. The payload itself lives in the store; this record exists
// exactly as long as the store knows the ID (live or tombstoned), so the
// seen map doubles as the duplicate-suppression index.
type msgState struct {
	receivedAt   time.Duration
	ageAtReceipt time.Duration
	// announcedMask and heardMask bound the per-neighbor gossip rule
	// (gossip each ID to each neighbor at most once, never back to a node
	// it was heard from) as bitmasks over the node's neighbor-slot table:
	// bit s set means this ID was announced to / heard from the holder of
	// slot s. Degree is bounded at C+1 ≈ 6–7, so a uint64 is ample; peers
	// without a slot (non-neighbors) are simply not recorded, which is
	// equivalent — a re-added neighbor's marks are scrubbed either way
	// (see reannounceTo), and non-neighbors are never consulted.
	announcedMask uint64
	heardMask     uint64
	announceDone  bool
	// sym, when non-nil, marks a coopcast message assembled from
	// erasure-coded symbols (see coopcast.go). For these, heardMask means
	// "peer known able to reconstruct" (advertised >= K symbols), not
	// "peer holds the payload".
	sym *symState
	// traced marks a message sampled for dissemination tracing; hops and
	// origin mirror the incoming hop context (both zero at the origin).
	// Outgoing copies are re-stamped via hopOf.
	traced bool
	hops   uint8
	origin time.Duration
}

// adoptHop installs an incoming sampled hop context on a fresh message
// record so outgoing copies and trace spans carry the right depth. One
// branch for the unsampled majority.
func (st *msgState) adoptHop(h Hop) {
	if h.Sampled {
		st.traced = true
		st.hops = h.Hops
		st.origin = h.Origin
	}
}

// pullState tracks a message known only by ID (from gossips).
type pullState struct {
	holders    []NodeID
	learnedAt  time.Duration
	ageAtLearn time.Duration
	next       int
	timer      Timer
	// pullSentAt is when the most recent PullRequest for this ID left,
	// 0 while no pull has been issued yet (observability only).
	pullSentAt time.Duration
	// hop is the trace context from the gossip advert that opened this
	// pull, so pull-path spans know the message is sampled.
	hop Hop
}

// invalidSlot marks a neighbor holding no bitmask slot (only possible
// past 64 concurrent slot holders).
const invalidSlot = 0xFF

// slotBit returns the bitmask bit of peer's neighbor slot, or 0 when peer
// is not a current neighbor (OR-ing 0 into a mask is a no-op, matching
// the old slices' irrelevant bookkeeping for non-neighbors).
func (n *Node) slotBit(peer NodeID) uint64 {
	nb := n.neighbors.get(peer)
	if nb == nil || nb.slot == invalidSlot {
		return 0
	}
	return 1 << nb.slot
}

// allocSlot assigns a bitmask slot to a new neighbor: its parked slot
// from a previous link if one is retired, else a free slot.
func (n *Node) allocSlot(peer NodeID) uint8 {
	if s, ok := n.retiredSlots.get(peer); ok {
		n.retiredSlots.del(peer)
		return s
	}
	if n.slotUsed == ^uint64(0) {
		n.scrubRetiredSlots()
	}
	if n.slotUsed == ^uint64(0) {
		return invalidSlot
	}
	s := uint8(bits.TrailingZeros64(^n.slotUsed))
	n.slotUsed |= 1 << s
	return s
}

// retireSlot parks a removed neighbor's slot WITHOUT clearing its bits,
// so a later re-add still sees what was announced to that peer — the same
// information the old per-message NodeID slices retained across link
// breaks (it feeds the Reannounced accounting in reannounceTo).
func (n *Node) retireSlot(peer NodeID, slot uint8) {
	if slot == invalidSlot {
		return
	}
	n.retiredSlots.put(peer, slot)
}

// scrubRetiredSlots clears every retired slot's bits from the in-flight
// messages and frees the slots. Needed only when all 64 slots are taken,
// which bounded degree makes rare.
func (n *Node) scrubRetiredSlots() {
	if n.retiredSlots.len() == 0 {
		return
	}
	var mask uint64
	n.retiredSlots.each(func(_ NodeID, slot *uint8) { mask |= 1 << *slot })
	for _, id := range n.recent {
		if st := n.seen[pid(id)]; st != nil {
			st.announcedMask &^= mask
			st.heardMask &^= mask
		}
	}
	n.slotUsed &^= mask
	n.retiredSlots.clear()
}

// getMsgState takes a zeroed record from the free list (or allocates).
func (n *Node) getMsgState() *msgState {
	if k := len(n.msgFree) - 1; k >= 0 {
		st := n.msgFree[k]
		n.msgFree = n.msgFree[:k]
		*st = msgState{}
		return st
	}
	return &msgState{}
}

// putMsgState returns a record whose ID left the seen map.
func (n *Node) putMsgState(st *msgState) { n.msgFree = append(n.msgFree, st) }

// getPullState takes a reset record from the free list, keeping the
// holders slice's capacity.
func (n *Node) getPullState() *pullState {
	if k := len(n.pullFree) - 1; k >= 0 {
		ps := n.pullFree[k]
		n.pullFree = n.pullFree[:k]
		h := ps.holders[:0]
		*ps = pullState{holders: h}
		return ps
	}
	return &pullState{}
}

// putPullState recycles a record removed from the pending map. Armed
// retry closures capture the MessageID, never the record, so a late
// firing after recycling finds nothing in pending and is inert.
func (n *Node) putPullState(ps *pullState) { n.pullFree = append(n.pullFree, ps) }

// newGossip, newMulticast, and newPullRequest take wire structs from the
// env's pool when it has one (the simulator recycles them after
// delivery); otherwise they allocate. After env.Send the struct belongs
// to the substrate and must not be touched again.
func (n *Node) newGossip() *Gossip {
	if n.pool != nil {
		return n.pool.GetGossip()
	}
	return &Gossip{}
}

func (n *Node) newMulticast(id MessageID, age time.Duration, payload []byte, viaTree bool, hop Hop) *Multicast {
	if n.pool != nil {
		m := n.pool.GetMulticast()
		m.ID, m.Age, m.Payload, m.ViaTree, m.Hop = id, age, payload, viaTree, hop
		return m
	}
	return &Multicast{ID: id, Age: age, Payload: payload, ViaTree: viaTree, Hop: hop}
}

// hopOf builds the outgoing trace hop context for a buffered message:
// all zeros (one branch) unless the message is sampled, in which case
// outgoing copies carry this node's arrival depth plus one.
func (n *Node) hopOf(st *msgState) Hop {
	if st == nil || !st.traced {
		return Hop{}
	}
	return Hop{Sampled: true, Hops: st.hops + 1, Origin: st.origin}
}

func (n *Node) newPullRequest() *PullRequest {
	if n.pool != nil {
		return n.pool.GetPullRequest()
	}
	return &PullRequest{}
}

const reclaimScanPeriod = 5 * time.Second

// pid packs a MessageID into the uint64 key of the seen and pending
// maps. Struct-keyed Go maps hash through the generic layout; a uint64
// key takes the runtime's fast64 path, which is measurably cheaper at
// millions of lookups per simulated second (the per-gossip-ID dedupe
// check is the single hottest map access in the simulator).
func pid(id MessageID) uint64 { return uint64(uint32(id.Source))<<32 | uint64(id.Seq) }

// sid converts a MessageID to its store key.
func sid(id MessageID) store.ID {
	return store.ID{Source: int32(id.Source), Seq: id.Seq}
}

// mid converts a store key back to a MessageID.
func mid(id store.ID) MessageID {
	return MessageID{Source: NodeID(id.Source), Seq: id.Seq}
}

// NextMessageID returns the ID the next Multicast call will assign,
// letting callers register tracking before the synchronous local delivery.
func (n *Node) NextMessageID() MessageID {
	return MessageID{Source: n.id, Seq: n.nextSeq}
}

// Multicast injects a new message into the system from this node and
// returns its ID. Any node can start a multicast without involving the
// root.
func (n *Node) Multicast(payload []byte) MessageID {
	if n.cfg.CoopcastThreshold > 0 && len(payload) >= n.cfg.CoopcastThreshold {
		if id, ok := n.multicastCoopcast(payload); ok {
			return id
		}
	}
	id := MessageID{Source: n.id, Seq: n.nextSeq}
	n.nextSeq++
	st := n.getMsgState()
	st.receivedAt = n.env.Now()
	n.seen[pid(id)] = st
	if n.cfg.TraceSampleEvery > 0 && id.Seq%uint32(n.cfg.TraceSampleEvery) == 0 {
		st.traced = true
		st.origin = n.env.Now()
	}
	n.store.Put(sid(id), payload, n.env.Now())
	n.recent = append(n.recent, id)
	n.stats.Injected++
	n.deliverLocal(id, st, payload)
	if n.obs != nil {
		n.observe(n.msgSpan(dtrace.KindInject, id, None, 0, 0, st.traced))
	}
	n.forwardTree(id, st, payload, None)
	return id
}

// deliverLocal invokes the application callback once.
func (n *Node) deliverLocal(id MessageID, st *msgState, payload []byte) {
	n.stats.Delivered++
	if n.deliver != nil {
		n.deliver(id, payload, n.ageOf(st))
	}
}

// ageOf estimates the time since the message was injected at its source.
func (n *Node) ageOf(st *msgState) time.Duration {
	return st.ageAtReceipt + (n.env.Now() - st.receivedAt)
}

// forwardTree pushes the message along all tree links except the one it
// arrived on (and any neighbor already known to have it).
func (n *Node) forwardTree(id MessageID, st *msgState, payload []byte, except NodeID) {
	if !n.cfg.EnableTree {
		return
	}
	hop := n.hopOf(st)
	targets := n.appendTreeNeighbors(n.treeTargets[:0])
	n.treeTargets = targets[:0]
	for _, t := range targets {
		if t == except || st.heardMask&n.slotBit(t) != 0 {
			continue
		}
		n.stats.TreeForwards++
		if n.obs != nil {
			n.observe(n.msgSpan(dtrace.KindTreeSend, id, t, 0, 0, false))
		}
		n.env.Send(t, n.newMulticast(id, n.ageOf(st), payload, true, hop))
	}
}

// handleMulticast receives a payload via tree push or pull response.
func (n *Node) handleMulticast(from NodeID, m *Multicast) {
	n.receiveMulticast(from, m, false)
}

// receiveMulticast is the shared receive path for whole-payload
// multicasts: tree pushes and pull responses arrive through
// handleMulticast, sync catch-up items through handleSyncReply with
// viaSync set — the distinction only matters for trace attribution.
func (n *Node) receiveMulticast(from NodeID, m *Multicast, viaSync bool) {
	if st, ok := n.seen[pid(m.ID)]; ok {
		// Redundant copy (the 2% case discussed in Section 2.1).
		n.stats.Duplicates++
		st.heardMask |= n.slotBit(from)
		return
	}
	// The age estimate accumulates hop by hop: the sender stamps its own
	// estimate and the receiver adds the link's propagation delay.
	age := m.Age
	if nb := n.neighbors.get(from); nb != nil {
		age += n.linkLatency(nb)
	}
	st := n.getMsgState()
	st.receivedAt = n.env.Now()
	st.ageAtReceipt = age
	st.heardMask = n.slotBit(from)
	st.adoptHop(m.Hop)
	n.seen[pid(m.ID)] = st
	n.store.Put(sid(m.ID), m.Payload, n.env.Now())
	n.recent = append(n.recent, m.ID)
	n.stats.PayloadsRecv++
	// pulledAt survives the pullState's recycling so the delivery record
	// can report the request→reply RTT.
	var pulledAt time.Duration
	if ps, ok := n.pending[pid(m.ID)]; ok {
		ps.timer.Stop()
		pulledAt = ps.pullSentAt
		delete(n.pending, pid(m.ID))
		n.putPullState(ps)
	}
	n.deliverLocal(m.ID, st, m.Payload)
	if n.obs != nil {
		kind := dtrace.KindPullDeliver
		switch {
		case viaSync:
			kind = dtrace.KindSyncDeliver
		case m.ViaTree:
			kind = dtrace.KindTreeDeliver
		}
		s := n.msgSpan(kind, m.ID, from, m.Hop.Hops, n.ageOf(st), st.traced)
		if kind == dtrace.KindPullDeliver && pulledAt > 0 {
			s.Start = pulledAt
		}
		s.Aux2 = int64(pulledAt)
		n.observe(s)
	}
	n.forwardTree(m.ID, st, m.Payload, from)
}

// gossipTick re-arms the gossip timer and runs one round, timing it when
// an observer is installed.
func (n *Node) gossipTick() {
	if !n.running {
		return
	}
	n.gossipTimer = n.env.After(n.scaledGossipPeriod(), n.tickGossip)
	if n.obs == nil {
		n.gossipRound()
		return
	}
	start := n.env.Now()
	n.gossipRound()
	n.observe(dtrace.Span{Kind: dtrace.KindGossipRound, From: int32(None), Start: start, End: n.env.Now()})
}

// gossipRound sends the periodic summary to the next neighbor round-robin.
func (n *Node) gossipRound() {
	deg := n.neighbors.len()
	if deg == 0 {
		return
	}
	if n.gossipIdx >= deg {
		n.gossipIdx = 0
	}
	nb := n.neighbors.nbs[n.gossipIdx]
	y := nb.entry.ID
	n.gossipIdx = (n.gossipIdx + 1) % deg
	g := n.newGossip()
	var bit uint64
	if nb.slot != invalidSlot {
		bit = 1 << nb.slot
	}
	for _, id := range n.recent {
		st := n.seen[pid(id)]
		if st == nil || st.announceDone {
			continue
		}
		if st.sym != nil {
			// Coopcast: advertise the symbol bitmap instead of a bare ID.
			if ad, ok := n.symbolAdvertTo(id, st, bit); ok {
				g.Syms = append(g.Syms, ad)
			}
			continue
		}
		if (st.heardMask|st.announcedMask)&bit != 0 {
			continue
		}
		st.announcedMask |= bit
		g.IDs = append(g.IDs, GossipID{ID: id, Age: n.ageOf(st), Hop: n.hopOf(st)})
	}
	n.compactRecent()
	g.Members = n.appendSampleMembers(g.Members, n.cfg.MemberSampleSize, y)
	g.Degrees = n.degrees()
	g.Obits = n.appendActiveObits(g.Obits)
	n.stats.GossipsSent++
	n.stats.IDsAnnounced += int64(len(g.IDs) + len(g.Syms))
	n.env.Send(y, g)
}

// compactRecent retires messages that have been announced to (or heard
// from) every current neighbor; the store then holds their payload for
// ReclaimAfter (the paper's waiting period b) before reclaiming it — the
// stability-based GC rule.
func (n *Node) compactRecent() {
	out := n.recent[:0]
	for _, id := range n.recent {
		st := n.seen[pid(id)]
		if st == nil {
			continue
		}
		// An incomplete coopcast assembly is never retired: it keeps
		// advertising (and pulling) until it completes or ages out.
		if st.sym != nil && !st.sym.complete {
			out = append(out, id)
			continue
		}
		// Covered once every current neighbor's slot bit is present in
		// either mask. liveMask is exactly the current neighbors' bits, so
		// stale bits from retired slots cannot count toward coverage.
		if (st.heardMask|st.announcedMask)&n.liveMask == n.liveMask {
			st.announceDone = true
			n.store.MarkStable(sid(id), n.env.Now())
			continue
		}
		out = append(out, id)
	}
	n.recent = out
}

// reannounceTo reconciles dissemination state when a new neighbor appears.
// A neighbor can only be (re)added when it is not currently linked, so any
// announcement sent to it earlier went over a link that has since broken
// and may never have arrived: for messages still in flight (not yet
// retired) both the announcedTo mark and the heardFrom mark are scrubbed,
// so the next gossip to that peer announces them once more (heardFrom also
// records served pulls whose response may have died with the link; a
// redundant re-announcement is deduplicated by the receiver).
//
// Messages already retired (fully announced and handed to the store's
// stability GC) are NOT re-opened: re-announcing the whole buffer on every
// link change costs O(buffer) gossip per link, where a watermark digest
// exchange costs O(sources). The new link — which may be a healed
// partition — instead triggers a sync round, rate-limited per peer so
// routine overlay adaptation does not turn every link change into a
// digest exchange.
func (n *Node) reannounceTo(peer NodeID) {
	if bit := n.slotBit(peer); bit != 0 {
		for _, id := range n.recent {
			st := n.seen[pid(id)]
			if st == nil || st.announceDone {
				continue
			}
			if st.announcedMask&bit != 0 {
				n.stats.Reannounced++
			}
			st.announcedMask &^= bit
			st.heardMask &^= bit
		}
	}
	n.requestSync(peer, false)
}

// handleGossip ingests a summary from neighbor `from`; nb is its record
// as HandleMessage looked it up (nil if from is not a neighbor).
func (n *Node) handleGossip(from NodeID, nb *neighbor, g *Gossip) {
	n.stats.GossipsRecv++
	if nb != nil {
		nb.deg = g.Degrees
		nb.degKnown = true
	}
	for _, ob := range g.Obits {
		if ob.ID == n.id {
			// Rumor of our own death: refute it by bumping our incarnation
			// (SWIM-style), so our next entries supersede the obituary.
			if ob.Inc >= n.self.Inc {
				n.self.Inc = ob.Inc + 1
				n.stats.SelfRefutes++
			}
			continue
		}
		n.recordObit(ob.ID, ob.Inc, true)
	}
	for _, e := range g.Members {
		n.learnEntry(e)
	}
	var linkLat time.Duration
	if nb := n.neighbors.get(from); nb != nil {
		linkLat = n.linkLatency(nb)
	}
	for i := range g.Syms {
		n.handleSymbolAdvert(from, &g.Syms[i], linkLat)
	}
	var pull *PullRequest
	for _, gid := range g.IDs {
		if st, ok := n.seen[pid(gid.ID)]; ok {
			st.heardMask |= n.slotBit(from)
			continue
		}
		if ps, ok := n.pending[pid(gid.ID)]; ok {
			addID(&ps.holders, from)
			continue
		}
		age := gid.Age + linkLat
		ps := n.getPullState()
		ps.holders = append(ps.holders, from)
		ps.learnedAt = n.env.Now()
		ps.ageAtLearn = age
		ps.hop = gid.Hop
		n.pending[pid(gid.ID)] = ps
		if gid.Hop.Sampled && n.obs != nil {
			n.observe(n.msgSpan(dtrace.KindAdvert, gid.ID, from, gid.Hop.Hops, age, true))
		}
		// Give the tree PullDelay (f) since injection before pulling.
		wait := n.cfg.PullDelay - age
		if wait <= 0 {
			if pull == nil {
				pull = n.newPullRequest()
			}
			pull.IDs = append(pull.IDs, gid.ID)
			ps.next = 1 // first holder about to be asked
			ps.pullSentAt = n.env.Now()
			if n.obs != nil {
				s := n.msgSpan(dtrace.KindPull, gid.ID, from, gid.Hop.Hops, age, gid.Hop.Sampled)
				s.Start = ps.learnedAt
				n.observe(s)
			}
			ps.timer = n.startPullRetry(gid.ID)
			continue
		}
		id := gid.ID
		ps.timer = n.env.After(wait, func() { n.firePull(id) })
	}
	if pull != nil {
		n.stats.PullsSent++
		n.env.Send(from, pull)
	}
}

// firePull requests a message from the next known holder.
func (n *Node) firePull(id MessageID) {
	ps, ok := n.pending[pid(id)]
	if !ok {
		return
	}
	if len(ps.holders) == 0 {
		delete(n.pending, pid(id))
		n.putPullState(ps)
		return
	}
	holder := ps.holders[ps.next%len(ps.holders)]
	attempt := ps.next
	ps.next++
	ps.pullSentAt = n.env.Now()
	n.stats.PullsSent++
	if n.obs != nil {
		s := n.msgSpan(dtrace.KindPull, id, holder, ps.hop.Hops, ps.ageAtLearn, ps.hop.Sampled)
		s.Start, s.Aux = ps.learnedAt, int64(attempt)
		n.observe(s)
	}
	pr := n.newPullRequest()
	pr.IDs = append(pr.IDs, id)
	n.env.Send(holder, pr)
	ps.timer = n.startPullRetry(id)
}

// startPullRetry arms the retry timer for an outstanding pull.
func (n *Node) startPullRetry(id MessageID) Timer {
	return n.env.After(n.cfg.PullRetry, func() {
		if ps, ok := n.pending[pid(id)]; ok {
			n.stats.PullRetries++
			if ps.next > len(ps.holders)+3 {
				// All known holders unresponsive; give up and wait for
				// another gossip to re-announce the ID.
				delete(n.pending, pid(id))
				n.putPullState(ps)
				return
			}
			n.firePull(id)
		}
	})
}

// handlePullRequest serves buffered payloads. IDs whose payload is gone —
// reclaimed, evicted, or never held — are answered with an explicit
// PullMiss so the puller advances immediately instead of waiting out its
// retry timer.
func (n *Node) handlePullRequest(from NodeID, m *PullRequest) {
	var missed []MessageID
	for _, id := range m.IDs {
		payload, ok := n.store.Get(sid(id))
		if !ok {
			missed = append(missed, id)
			continue
		}
		st := n.seen[pid(id)]
		if st == nil {
			// The store and seen map are kept in lockstep; a live payload
			// without bookkeeping should not happen, but serve it anyway.
			st = n.getMsgState()
			st.receivedAt = n.env.Now()
			n.seen[pid(id)] = st
		}
		st.heardMask |= n.slotBit(from) // requester will have it; never announce back
		n.stats.PullsServed++
		n.env.Send(from, n.newMulticast(id, n.ageOf(st), payload, false, n.hopOf(st)))
	}
	if len(missed) > 0 {
		n.stats.PullMissesSent += int64(len(missed))
		n.env.Send(from, &PullMiss{IDs: missed})
	}
}

// handlePullMiss reacts to a holder reporting it can no longer serve some
// pulled IDs: drop that holder and retry the next one now, or — when no
// holder remains — give up on pulling and fall back to a digest sync with
// the reporting peer, which can recover the payload if anyone in its
// reach still buffers it.
func (n *Node) handlePullMiss(from NodeID, m *PullMiss) {
	fellBack := false
	for _, id := range m.IDs {
		ps, ok := n.pending[pid(id)]
		if !ok {
			continue
		}
		n.stats.PullMissesRecv++
		removeID(&ps.holders, from)
		ps.timer.Stop()
		if len(ps.holders) == 0 {
			delete(n.pending, pid(id))
			n.putPullState(ps)
			fellBack = true
			continue
		}
		n.firePull(id)
	}
	if fellBack {
		n.requestSync(from, true)
	}
}

// reclaimTick drives the store's GC sweep and drops the gossip bookkeeping
// of records the store has forgotten entirely.
func (n *Node) reclaimTick() {
	if !n.running {
		return
	}
	n.reclaimTimer = n.env.After(reclaimScanPeriod, n.tickReclaim)
	var start time.Duration
	if n.obs != nil {
		start = n.env.Now()
	}
	res := n.store.GC(n.env.Now())
	for _, id := range res.Reclaimed {
		// A reclaimed coopcast record can no longer accept or serve
		// symbols; stop its pull loop instead of retrying into a tombstone.
		if st := n.seen[pid(mid(id))]; st != nil && st.sym != nil && !st.sym.complete {
			if !st.sym.failed {
				n.assembling--
			}
			st.sym.failed = true
			st.sym.timer.Stop()
		}
	}
	for _, id := range res.Dropped {
		key := pid(mid(id))
		if st := n.seen[key]; st != nil {
			if st.sym != nil {
				st.sym.timer.Stop()
				if !st.sym.complete && !st.sym.failed {
					n.assembling--
				}
			}
			delete(n.seen, key)
			n.putMsgState(st)
		}
	}
	if n.obs != nil {
		n.observe(dtrace.Span{Kind: dtrace.KindStoreGC, From: int32(None), Start: start, End: n.env.Now(),
			Aux: int64(len(res.Reclaimed)), Aux2: int64(len(res.Dropped))})
	}
}

// Seen reports whether the node has received (or injected) the message.
func (n *Node) Seen(id MessageID) bool {
	_, ok := n.seen[pid(id)]
	return ok
}

// Store exposes the node's message store for inspection (stats surfacing,
// tests). Treat it as read-only outside the node's own thread discipline.
func (n *Node) Store() *store.Memory { return n.store }

// containsID reports membership in a small NodeID slice.
func containsID(s []NodeID, id NodeID) bool {
	for _, v := range s {
		if v == id {
			return true
		}
	}
	return false
}

// addID appends id if absent.
func addID(s *[]NodeID, id NodeID) {
	if !containsID(*s, id) {
		*s = append(*s, id)
	}
}

// removeID deletes id from the slice if present.
func removeID(s *[]NodeID, id NodeID) {
	for i, v := range *s {
		if v == id {
			*s = append((*s)[:i], (*s)[i+1:]...)
			return
		}
	}
}
