package core

import (
	"time"

	"gocast/internal/dtrace"
	"gocast/internal/store"
)

// Digest-based anti-entropy sync. Gossip summaries announce each message ID
// at most once per neighbor, so a node that was down, partitioned away, or
// whose pulls expired can miss messages with no remaining path to them.
// Sync closes that gap: the requester summarizes its store as per-source
// [low, high] watermark ranges and the responder streams back everything it
// holds beyond them, paced by a per-reply byte budget.
//
// Rounds are triggered on rejoin (the join contact is the first sync peer),
// on partition heal (a new overlay link re-opens announcements AND digests),
// after an expired pull exhausts its holders, and periodically at low
// frequency between overlay neighbors as a safety net.

// syncEnabled reports whether the sync protocol is active. validate() maps
// SyncInterval 0 to the default, so only an explicitly negative interval
// disables sync.
func (n *Node) syncEnabled() bool { return n.cfg.SyncInterval > 0 }

// syncTick runs the periodic background round against one overlay neighbor
// chosen round-robin.
func (n *Node) syncTick() {
	if !n.running {
		return
	}
	n.syncTimer = n.env.After(n.scaledSyncInterval(), n.tickSync)
	deg := n.neighbors.len()
	if deg == 0 {
		return
	}
	if n.syncIdx >= deg {
		n.syncIdx = 0
	}
	peer := n.neighbors.ids[n.syncIdx]
	n.syncIdx = (n.syncIdx + 1) % deg
	n.requestSync(peer, false)
}

// requestSync initiates one sync round with peer. Non-forced requests are
// rate-limited to one per SyncInterval per peer so event triggers (link
// adds during overlay adaptation) cannot flood; forced requests (rejoin,
// expired-pull fallback, More-loop continuation) always go out.
func (n *Node) requestSync(peer NodeID, force bool) {
	if !n.syncEnabled() || peer == n.id || peer == None {
		return
	}
	now := n.env.Now()
	if !force {
		if last, ok := n.lastSyncTo.get(peer); ok && now-last < n.cfg.SyncInterval {
			return
		}
	}
	n.lastSyncTo.put(peer, now)
	n.stats.SyncRequestsSent++
	// The outgoing digest must not be node scratch: Send may deliver
	// asynchronously (netsim holds the message until its event fires), so
	// a slice reused here would be mutated under the request. A reused
	// request's own Ranges are free: the substrate took the struct back
	// only after its delivery.
	req := reuse[SyncRequest](n)
	req.Ranges = n.store.DigestAppend(req.Ranges[:0])
	n.env.Send(peer, req)
}

// localDigest returns this node's watermark digest for transient,
// same-event use only (compared and discarded before returning to the
// event loop). The slice is node-owned scratch: it must never be sent or
// retained past the current handler.
func (n *Node) localDigest() []store.SourceRange {
	n.digestScratch = n.store.DigestAppend(n.digestScratch[:0])
	return n.digestScratch
}

// handleSyncRequest serves one reply batch: everything this node's store
// holds beyond the requester's watermarks, oldest sources first, truncated
// at SyncBatchBytes of payload (but always at least one item, so progress
// is guaranteed). A truncated reply carries More=true and the requester
// comes back with an advanced digest — the transfer paces itself
// request-by-request, bounding the burst a recovering node (or this
// responder) must absorb.
func (n *Node) handleSyncRequest(from NodeID, m *SyncRequest) {
	n.stats.SyncRequestsRecv++
	missing := store.Missing(n.localDigest(), m.Ranges)
	if len(missing) == 0 {
		return
	}
	var items []SyncItem
	var syms []Symbol
	budget := n.cfg.SyncBatchBytes
	more := false
	for _, r := range missing {
		if more {
			break
		}
		n.store.Range(r.Source, r.Low, r.High, func(id store.ID, payload []byte) bool {
			mID := mid(id)
			var age time.Duration
			st := n.seen[pid(mID)]
			if st != nil {
				age = n.ageOf(st)
			}
			if meta, _, ok := n.store.SymbolInfo(id); payload == nil && ok {
				// Symbol-granular (coopcast) record: page its symbols
				// individually under the same byte budget. The requester
				// reassembles through the normal symbol path; transfers
				// truncate at symbol granularity, not whole payloads.
				// (A nil payload with no symbol info is a legitimately
				// empty whole message and takes the item path below.)
				n.store.RangeSymbols(id, func(idx int, data []byte) bool {
					if (len(items) > 0 || len(syms) > 0) && len(data) > budget {
						more = true
						return false
					}
					syms = append(syms, Symbol{
						ID: mID, Age: age, Index: uint16(idx),
						K: meta.K, N: meta.N, PayloadLen: meta.PayloadLen,
						Data: data, Hop: n.hopOf(st),
					})
					budget -= len(data)
					return true
				})
				return !more
			}
			if (len(items) > 0 || len(syms) > 0) && len(payload) > budget {
				more = true
				return false
			}
			if st != nil {
				// The requester holds the payload once the reply lands;
				// never gossip-announce this ID back to it.
				st.heardMask |= n.slotBit(from)
			}
			items = append(items, SyncItem{ID: mID, Age: age, Payload: payload, Hop: n.hopOf(st)})
			budget -= len(payload)
			return true
		})
	}
	if len(items) == 0 && len(syms) == 0 {
		return
	}
	var pageBytes int64
	for _, it := range items {
		pageBytes += int64(len(it.Payload))
	}
	for i := range syms {
		pageBytes += int64(len(syms[i].Data))
	}
	n.stats.SyncRepliesSent++
	n.stats.SyncItemsSent += int64(len(items) + len(syms))
	n.stats.SyncBytesSent += pageBytes
	if n.emits(dtrace.KindSyncPage) {
		now := n.env.Now()
		n.observe(dtrace.Span{Kind: dtrace.KindSyncPage, From: int32(from), Start: now, End: now,
			Aux: int64(len(items) + len(syms)), Aux2: pageBytes})
	}
	n.env.Send(from, &SyncReply{Items: items, Syms: syms, More: more})
}

// handleSyncReply ingests recovered payloads. Each item goes through the
// normal multicast receive path, which deduplicates, delivers to the
// application, forwards along tree links, and cancels any outstanding pull
// for the same ID. More=true means the responder truncated the batch: ask
// again immediately — the advanced digest shifts the window forward.
func (n *Node) handleSyncReply(from NodeID, m *SyncReply) {
	n.stats.SyncRepliesRecv++
	for _, it := range m.Items {
		if _, dup := n.seen[pid(it.ID)]; !dup {
			n.stats.SyncItemsRecv++
		}
		n.receiveMulticast(from, &Multicast{ID: it.ID, Age: it.Age, Payload: it.Payload, Hop: it.Hop}, true)
	}
	for i := range m.Syms {
		s := m.Syms[i]
		if st, ok := n.seen[pid(s.ID)]; !ok || st.sym != nil && !st.sym.have.Has(int(s.Index)) {
			n.stats.SyncItemsRecv++
		}
		n.handleSymbol(from, &s)
	}
	if m.More {
		n.requestSync(from, true)
	}
}
