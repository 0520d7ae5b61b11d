package core

import "time"

// Partial membership (Section 2.2.1). Each node maintains a bounded,
// approximately uniform random subset of the system, refreshed by entries
// piggybacked on gossips (lpbcast-style). The paper cites [5]: a uniformly
// random partial member list is almost as good as a complete one.

// obitRecord quarantines one dead or departed incarnation of a node:
// entries with Inc at or below the record's are not re-learned until the
// quarantine window passes (or a higher incarnation supersedes it).
type obitRecord struct {
	Inc   uint32
	Until time.Duration
	// Spread marks departure obituaries (authoritative: the node announced
	// its own leave), which piggyback on outgoing gossips. Obits from mere
	// failure suspicion stay local so a false positive cannot cascade.
	Spread bool
}

// learnEntry merges one membership entry into the view. The highest
// incarnation always wins: stale incarnations are rejected, higher ones
// supersede the old life (dropping any link held under it). Entries with a
// landmark vector replace vector-less ones for the same node and
// incarnation; when the view is full a random existing entry is evicted so
// the view stays an unbiased sample.
func (n *Node) learnEntry(e Entry) {
	if e.ID == n.id || e.ID == None {
		return
	}
	if n.obitBlocks(e) {
		n.stats.ObitsHonored++
		return
	}
	// One lookup per structure serves every later test, including the
	// rejoin check.
	i, nb := n.members.index(e.ID), n.neighbors.get(e.ID)
	var old Entry
	if i >= 0 {
		old = n.members.at(i)
		if e.Inc < old.Inc {
			n.stats.StaleIncRejects++
			return
		}
	}
	if nb != nil && e.Inc < nb.entry.Inc {
		n.stats.StaleIncRejects++
		return
	}
	n.env.Learn(e)
	staleLink := nb != nil && e.Inc > nb.entry.Inc
	if staleLink || (i >= 0 && e.Inc > old.Inc) {
		n.noteRejoin(e.ID, staleLink)
	}
	if i >= 0 {
		if e.Inc > old.Inc || len(e.Landmarks) > 0 || len(old.Landmarks) == 0 {
			// Steady-state gossip re-delivers the same entry constantly
			// (senders hand out one cached landmark slice, so identity
			// comparison of the slice headers catches the common case);
			// skip the table write when the stored value would not change.
			// noteRejoin touches neither the view nor its index, so i
			// still names e.ID's slot.
			if e.Inc != old.Inc || e.Addr != old.Addr ||
				len(e.Landmarks) != len(old.Landmarks) ||
				(len(e.Landmarks) > 0 && &e.Landmarks[0] != &old.Landmarks[0]) {
				n.members.entries[i] = e
			}
		}
		return
	}
	if n.members.len() >= n.cfg.MemberViewSize {
		// Evict a random entry that is not a current neighbor.
		victim := n.randomMember(n.notNeighbor)
		if victim == None {
			return
		}
		n.forgetMember(victim)
	}
	n.members.add(e)
}

// notNeighbor is learnEntry's eviction filter.
func (n *Node) notNeighbor(id NodeID) bool { return !n.neighbors.has(id) }

// obitBlocks reports whether an active obituary quarantines this entry. A
// strictly higher incarnation supersedes (clears) the obituary: a
// legitimate rejoin must not be blocked. Expired records linger as
// tombstones (see recordObit) and block nothing.
func (n *Node) obitBlocks(e Entry) bool {
	ob, ok := n.obits.get(e.ID)
	if !ok {
		return false
	}
	if e.Inc > ob.Inc {
		// A higher incarnation supersedes the obituary: the node is back.
		n.obits.del(e.ID)
		n.stats.RejoinsObserved++
		return false
	}
	return n.env.Now() < ob.Until
}

// noteRejoin reacts to evidence that a known peer restarted under a higher
// incarnation (the caller has compared the entry against the view and the
// link): cached measurements of the old life are discarded, and staleLink
// marks a link still held under the dead incarnation, which is torn down.
func (n *Node) noteRejoin(id NodeID, staleLink bool) {
	n.stats.RejoinsObserved++
	n.rtt.del(id)
	n.lastPong.del(id)
	if staleLink {
		n.stats.StaleLinksDropped++
		n.removeNeighbor(id, false)
	}
	n.abortOpsWith(id)
}

// recordObit quarantines a dead incarnation of a peer: the member entry is
// dropped, any link held under that incarnation (or older) is torn down,
// and re-learning is blocked for QuarantineWindow. spread marks departure
// obituaries, which piggyback on outgoing gossips. Each (id, incarnation)
// arms the window at most once; afterwards the record lingers as an
// expired tombstone so a still-circulating copy of the obituary cannot
// re-arm it — without this, nodes would refresh each other's windows
// epidemically and the obituary would never die out.
func (n *Node) recordObit(id NodeID, inc uint32, spread bool) {
	if id == n.id || id == None {
		return
	}
	if cur, ok := n.members.get(id); ok && cur.Inc > inc {
		return // a newer life is already known; the obituary is stale
	}
	if ob := n.obits.ptr(id); ob != nil {
		if ob.Inc > inc {
			return
		}
		if ob.Inc == inc {
			if spread && !ob.Spread && n.env.Now() < ob.Until {
				ob.Spread = true
			}
			return
		}
	}
	n.obits.put(id, obitRecord{Inc: inc, Until: n.env.Now() + n.cfg.QuarantineWindow, Spread: spread})
	n.stats.ObitsRecorded++
	n.forgetMember(id)
	if nb := n.neighbors.get(id); nb != nil && nb.entry.Inc <= inc {
		n.removeNeighbor(id, false)
	}
	n.abortOpsWith(id)
}

// knownInc returns the highest incarnation this node has recorded for id.
func (n *Node) knownInc(id NodeID) uint32 {
	var inc uint32
	if nb := n.neighbors.get(id); nb != nil {
		inc = nb.entry.Inc
	}
	if i := n.members.index(id); i >= 0 && n.members.entries[i].Inc > inc {
		inc = n.members.entries[i].Inc
	}
	return inc
}

// staleSender reports (and counts) a message carrying the sender entry of a
// dead or superseded incarnation; such messages were sent by a peer's past
// life and must not be acted on.
func (n *Node) staleSender(e Entry) bool {
	if e.ID == n.id || e.ID == None {
		return false
	}
	if ob, ok := n.obits.get(e.ID); ok && e.Inc <= ob.Inc && n.env.Now() < ob.Until {
		n.stats.StaleIncRejects++
		return true
	}
	if e.Inc < n.knownInc(e.ID) {
		n.stats.StaleIncRejects++
		return true
	}
	return false
}

// appendActiveObits appends the unexpired spreading obituaries
// (departures) to out in ID order, for gossip piggybacking. Expired
// records are kept as tombstones for a few windows (so circulating copies
// cannot re-arm them) and purged only after that retention passes. The
// node's scratch ID buffer is reused, so the gossip hot path allocates
// nothing once the scratch has grown.
func (n *Node) appendActiveObits(out []Obituary) []Obituary {
	if n.obits.len() == 0 {
		return out
	}
	now := n.env.Now()
	// Purging deletes from the table, which reorders its slots, so the
	// keys are collected first.
	ids := n.obits.appendKeys(n.obitScratch[:0])
	spread := ids[:0]
	for _, id := range ids {
		ob, _ := n.obits.get(id)
		if now >= ob.Until {
			if now >= ob.Until+4*n.cfg.QuarantineWindow {
				n.obits.del(id)
			}
			continue
		}
		if ob.Spread {
			spread = append(spread, id)
		}
	}
	sortNodeIDs(spread)
	for _, id := range spread {
		ob, _ := n.obits.get(id)
		out = append(out, Obituary{ID: id, Inc: ob.Inc})
	}
	n.obitScratch = ids[:0]
	return out
}

// Obituaries returns the node's active quarantine records (spreading and
// local), for introspection and tests.
func (n *Node) Obituaries() []Obituary {
	now := n.env.Now()
	var ids []NodeID
	for _, id := range n.obits.appendKeys(nil) {
		if ob, _ := n.obits.get(id); now < ob.Until {
			ids = append(ids, id)
		}
	}
	sortNodeIDs(ids)
	out := make([]Obituary, 0, len(ids))
	for _, id := range ids {
		ob, _ := n.obits.get(id)
		out = append(out, Obituary{ID: id, Inc: ob.Inc})
	}
	return out
}

// forgetMember removes a node from the view (e.g. it was found dead).
func (n *Node) forgetMember(id NodeID) {
	i := n.members.remove(id)
	if i < 0 {
		return
	}
	n.lastPong.del(id)
	// The swap-remove moved the former tail into slot i; keep the
	// round-robin cursor in range (exact fairness across a removal is not
	// required, staying deterministic is).
	if n.scanIdx > i {
		n.scanIdx--
	}
}

// SeedMembers installs bootstrap entries into the partial view, e.g. a
// deployment-provided seed list or a simulation's initial membership.
func (n *Node) SeedMembers(entries []Entry) {
	for _, e := range entries {
		n.learnEntry(e)
	}
}

// MemberCount returns the current partial-view size.
func (n *Node) MemberCount() int { return n.members.len() }

// Members returns a copy of the current partial view.
func (n *Node) Members() []Entry {
	return append([]Entry(nil), n.members.entries...)
}

// sampleMembers returns up to k random entries, excluding `exclude`
// (and implicitly the node itself, which is never in the view). The
// sender's own entry is appended so receivers learn fresh contact info.
func (n *Node) sampleMembers(k int, exclude NodeID) []Entry {
	if k <= 0 {
		return nil
	}
	return n.appendSampleMembers(make([]Entry, 0, k+1), k, exclude)
}

// appendSampleMembers is sampleMembers appending into caller-owned
// storage (the pooled Gossip's Members buffer on the hot path). It draws
// exactly the same RNG sequence as sampleMembers: one Rand call iff the
// view is non-empty and k > 0.
func (n *Node) appendSampleMembers(out []Entry, k int, exclude NodeID) []Entry {
	if k <= 0 {
		return out
	}
	if m := n.members.len(); m > 0 {
		base := len(out)
		start := n.env.Rand(m)
		for i := 0; i < m && len(out)-base < k; i++ {
			e := n.members.at((start + i) % m)
			if e.ID == exclude {
				continue
			}
			out = append(out, e)
		}
	}
	return append(out, n.selfEntry())
}

// selfEntry returns this node's own membership entry including its
// current landmark vector. The vector copy is cached until landVec
// changes; on change a fresh slice is allocated rather than rewriting the
// cached one, because receivers keep the returned slice in their views.
func (n *Node) selfEntry() Entry {
	e := n.self
	if len(n.landVec) > 0 {
		if !n.selfLmOK {
			n.selfLm = append([]uint16(nil), n.landVec...)
			n.selfLmOK = true
		}
		e.Landmarks = n.selfLm
	}
	return e
}

// randomMember picks a uniformly random member satisfying ok (nil = any),
// or None if none qualifies.
func (n *Node) randomMember(ok func(NodeID) bool) NodeID {
	m := n.members.len()
	if m == 0 {
		return None
	}
	for i, j := 0, n.env.Rand(m); i < m; i++ {
		id := n.members.entries[j].ID
		if ok == nil || ok(id) {
			return id
		}
		if j++; j == m {
			j = 0
		}
	}
	return None
}

// nextCandidate returns the next neighbor candidate to consider. While the
// estimated-latency first pass (built lazily once landmark vectors exist)
// has entries, candidates come from it in increasing estimated latency;
// afterwards candidates come from the member list in round-robin order
// (Section 2.2.3).
func (n *Node) nextCandidate(skip func(NodeID) bool) (Entry, bool) {
	if n.estimated == nil && n.landmarksReady() {
		n.buildEstimatePass()
	}
	for len(n.estimated) > 0 {
		id := n.estimated[0]
		n.estimated = n.estimated[1:]
		e, ok := n.members.get(id)
		if !ok || (skip != nil && skip(id)) {
			continue
		}
		return e, true
	}
	for i, m := 0, n.members.len(); i < m; i++ {
		n.scanIdx = (n.scanIdx + 1) % m
		e := n.members.at(n.scanIdx)
		if skip != nil && skip(e.ID) {
			continue
		}
		return e, true
	}
	return Entry{}, false
}

// buildEstimatePass sorts the current members by triangulated latency
// estimate for the initial measurement sweep.
func (n *Node) buildEstimatePass() {
	type cand struct {
		id  NodeID
		est int64
	}
	cands := make([]cand, 0, n.members.len())
	for _, e := range n.members.entries {
		cands = append(cands, cand{id: e.ID, est: int64(n.estimateRTT(e))})
	}
	// Insertion sort with ID tie-break: views are small and the order must
	// be deterministic.
	less := func(a, b cand) bool {
		if a.est != b.est {
			return a.est < b.est
		}
		return a.id < b.id
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && less(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	n.estimated = make([]NodeID, len(cands))
	for i, c := range cands {
		n.estimated[i] = c.id
	}
}
