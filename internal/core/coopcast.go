package core

import (
	"time"

	"gocast/internal/dtrace"
	"gocast/internal/fec"
	"gocast/internal/store"
)

// Coopcast: erasure-coded bulk dissemination, modeled on libunison's
// RaptorQ coopcast. Payloads of at least Config.CoopcastThreshold bytes
// are split into K source + R repair symbols (internal/fec); *different*
// symbols are striped down different tree links, gossip summaries carry
// per-message symbol bitmaps (SymbolAdvert), and repair pulls fetch
// individual missing symbols. A node delivers as soon as ANY K of the N
// symbols arrive, reconstructs the rest, and from then on can serve every
// symbol — so the tree spreads the push load across its links and the
// swarm of overlay neighbors fills the gaps laterally, instead of every
// tree link carrying the whole payload and every repair re-sending it.
//
// Striping rule: a symbol with index i travelling via the tree is
// forwarded to exactly ONE downstream tree link, chosen as i mod the
// number of eligible tree links. Each link therefore carries ~N/c symbols
// of an N-symbol message from a node with c downstream links; descendants
// recover the remainder through symbol pulls, which the adverts direct at
// neighbors that actually hold the wanted symbols.
//
// Repair is event-driven, so a coopcast delivery costs round trips, not
// gossip periods: a node sends its full-bitmap advert to every neighbor
// not known complete the moment it becomes complete (advertiseNow), and a
// receiver pulls newly advertised symbols the moment the advert lands
// (noteSymbolHolder -> pullSymbols). The periodic gossip round only carries
// the adverts of still-incomplete assemblies and re-opened announcements.
// One holder is asked for at most two thirds of a message per retry window
// (pullShare), so that eager adverts do not put the whole payload back on
// one link; symbols that arrive by pull are not re-striped down the tree.
//
// Reassembly state machine (per message, symState): assembling (0 <=
// have < K: advertise every gossip round; every missing symbol some holder
// advertises is requested from exactly one holder and stays in the
// in-flight set until it arrives or is found lost) -> complete (have >= K:
// decode, deliver, store all N symbols, advertise at once) or failed
// (decode error: inert; the store's MaxAge GC reclaims it). PullRetry is
// only the loss timer: it fires when a whole PullRetry passes after the
// last request with the message still incomplete, drops holders that
// answered nothing, clears the in-flight set and asks again. Partial
// messages are never marked stable, so the store's MaxAge fallback
// reclaims them — the GC path for partials needs no extra machinery.

// symState tracks the reassembly of one coopcast message. It hangs off
// the message's msgState; nil means the message is a classic whole-payload
// multicast.
type symState struct {
	k          uint16
	total      uint16 // N = K + R
	payloadLen uint32
	have       store.SymbolSet
	haveCnt    int
	complete   bool
	failed     bool
	// holders are neighbors that advertised symbols for this message,
	// with their last-seen bitmaps; nextHolder round-robins pull load.
	holders    []symHolder
	nextHolder int
	// timer is the pending PullDelay wait or PullRetry loss timer;
	// pullArmed is set while it is pending.
	timer     Timer
	pullArmed bool
}

type symHolder struct {
	id   NodeID
	have store.SymbolSet
	// asked is what this holder was asked for since the loss timer last
	// fired, less what was found lost; the union over holders is the
	// in-flight set. last is the highest index of its open batch, -1 once
	// that arrived.
	asked store.SymbolSet
	last  int
}

// holder returns the record of an advertising neighbor, nil if it has none.
func (s *symState) holder(id NodeID) *symHolder {
	for i := range s.holders {
		if s.holders[i].id == id {
			return &s.holders[i]
		}
	}
	return nil
}

// inflight is every symbol some holder has been asked for: requested, so
// not to be requested again before the loss timer says otherwise.
func (s *symState) inflight() (set store.SymbolSet) {
	for i := range s.holders {
		for w, bits := range s.holders[i].asked {
			set[w] |= bits
		}
	}
	return set
}

// pullShare caps what one holder is asked for between two firings of the
// loss timer at two thirds of the message, so that no link carries the
// whole payload: the rest has to come over a second link. Without it every
// node takes everything from whichever neighbor completes first, the same
// low-latency link for every source. A node with a single neighbor has no
// second link to wait for.
func (n *Node) pullShare(total int) int {
	if n.neighbors.len() < 2 {
		return total
	}
	return (2*total + 2) / 3
}

func (s *symState) meta() store.SymbolMeta {
	return store.SymbolMeta{K: s.k, N: s.total, PayloadLen: s.payloadLen}
}

// symbolSize is the uniform symbol size every holder derives locally.
func (s *symState) symbolSize() int {
	return fec.SymbolSizeFor(int(s.payloadLen), int(s.k))
}

// validGeometry rejects adverts and symbols whose coding parameters are
// impossible before any state is allocated for them.
func validGeometry(k, total uint16, payloadLen uint32) bool {
	return k > 0 && total >= k && int(total) <= fec.MaxSymbols && payloadLen > 0
}

// coderFor returns a coder for the given geometry, caching the last one:
// a workload's coopcast messages typically share parameters, and building
// the Cauchy parity matrix is O(K*R).
func (n *Node) coderFor(p fec.Params) (*fec.RS, error) {
	if n.fecCoder != nil && n.fecParams == p {
		return n.fecCoder, nil
	}
	c, err := fec.NewRS(p)
	if err != nil {
		return nil, err
	}
	n.fecCoder, n.fecParams = c, p
	return c, nil
}

// multicastCoopcast injects a payload as erasure-coded symbols. ok=false
// (impossible geometry, e.g. a payload too large for 256 symbols of the
// configured size class) makes the caller fall back to the whole path.
func (n *Node) multicastCoopcast(payload []byte) (MessageID, bool) {
	p := fec.ParamsFor(len(payload), n.cfg.FECSymbolSize, n.cfg.FECRepair)
	coder, err := n.coderFor(p)
	if err != nil {
		return MessageID{}, false
	}
	symbols, err := coder.Encode(payload)
	if err != nil {
		return MessageID{}, false
	}
	id := MessageID{Source: n.id, Seq: n.nextSeq}
	n.nextSeq++
	st := n.getMsgState()
	st.receivedAt = n.env.Now()
	if n.cfg.TraceSampleEvery > 0 && id.Seq%uint32(n.cfg.TraceSampleEvery) == 0 {
		st.traced = true
		st.origin = n.env.Now()
	}
	sym := &symState{
		k:          uint16(p.K),
		total:      uint16(p.N()),
		payloadLen: uint32(len(payload)),
		haveCnt:    p.N(),
		complete:   true,
	}
	for i := 0; i < p.N(); i++ {
		sym.have.Add(i)
	}
	st.sym = sym
	n.seen[pid(id)] = st
	meta := sym.meta()
	for i, s := range symbols {
		n.store.PutSymbol(sid(id), i, s, meta, n.env.Now())
	}
	n.recent = append(n.recent, id)
	n.stats.Injected++
	n.deliverLocal(id, st, payload)
	if n.emits(dtrace.KindInject) {
		n.observe(n.msgSpan(dtrace.KindInject, id, None, 0, 0, st.traced))
	}
	for i, s := range symbols {
		n.forwardSymbol(id, st, uint16(i), s, None)
	}
	n.advertiseNow(id, st)
	return id, true
}

// advertiseNow sends this node's advert for one message to its neighbors at
// once instead of leaving it to the gossip round, so their pulls start a
// link delay after the event — becoming complete, or being stuck partial —
// rather than up to a gossip cycle later. Each frame is a gossip summary
// with one advert and the degrees every summary carries (the receiver
// records them).
func (n *Node) advertiseNow(id MessageID, st *msgState) {
	for _, y := range n.neighbors.ids {
		ad, ok := n.symbolAdvertTo(id, st, n.slotBit(y))
		if !ok {
			continue
		}
		g := n.newGossip()
		g.Syms = append(g.Syms, ad)
		g.Degrees = n.degrees()
		n.stats.GossipsSent++
		n.stats.IDsAnnounced++
		n.eagerAdverts++
		n.env.Send(y, g)
	}
}

// symbolAdvertTo builds the advert of a coopcast message for the neighbor
// whose slot bit is given, or reports false when it is owed none. A
// complete message is announced once per neighbor like a whole one; an
// incomplete assembly advertises every time (its bitmap grows and
// neighbors pull against it); a neighbor known able to reconstruct needs
// neither.
func (n *Node) symbolAdvertTo(id MessageID, st *msgState, bit uint64) (SymbolAdvert, bool) {
	sym := st.sym
	if sym.failed || st.heardMask&bit != 0 {
		return SymbolAdvert{}, false
	}
	if sym.complete {
		if st.announcedMask&bit != 0 {
			return SymbolAdvert{}, false
		}
		st.announcedMask |= bit
	}
	return SymbolAdvert{
		ID: id, Age: n.ageOf(st),
		K: sym.k, N: sym.total, PayloadLen: sym.payloadLen,
		Have: sym.have,
	}, true
}

// forwardSymbol pushes one symbol down the single tree link the striping
// rule selects (Index mod eligible links), skipping the link it arrived on
// and peers already known to have the whole message.
func (n *Node) forwardSymbol(id MessageID, st *msgState, idx uint16, data []byte, except NodeID) {
	if !n.cfg.EnableTree {
		return
	}
	targets := n.appendTreeNeighbors(n.treeTargets[:0])
	n.treeTargets = targets[:0]
	k := 0
	for _, t := range targets {
		if t == except || st.heardMask&n.slotBit(t) != 0 {
			continue
		}
		targets[k] = t
		k++
	}
	targets = targets[:k]
	if len(targets) == 0 {
		return
	}
	t := targets[int(idx)%len(targets)]
	n.stats.SymbolsSent++
	if n.emits(dtrace.KindTreeSend) {
		s := n.msgSpan(dtrace.KindTreeSend, id, t, 0, 0, false)
		s.Aux = int64(idx)
		n.observe(s)
	}
	n.env.Send(t, &Symbol{
		ID: id, Age: n.ageOf(st), Index: idx,
		K: st.sym.k, N: st.sym.total, PayloadLen: st.sym.payloadLen,
		Data: data, ViaTree: true, Hop: n.hopOf(st),
	})
}

// handleSymbol ingests one symbol, from a tree push, a pull response, or a
// sync page.
func (n *Node) handleSymbol(from NodeID, m *Symbol) {
	key := pid(m.ID)
	st, known := n.seen[key]
	if known && st.sym == nil {
		// Held as a whole payload (mixed-threshold deployments); redundant.
		n.stats.SymbolDups++
		return
	}
	if !known {
		if !validGeometry(m.K, m.N, m.PayloadLen) || m.Index >= m.N {
			n.stats.SymbolsRejected++
			return
		}
		age := m.Age
		if nb := n.neighbors.get(from); nb != nil {
			age += n.linkLatency(nb)
		}
		st = n.getMsgState()
		st.receivedAt = n.env.Now()
		st.ageAtReceipt = age
		st.sym = &symState{k: m.K, total: m.N, payloadLen: m.PayloadLen}
		n.seen[key] = st
		n.recent = append(n.recent, m.ID)
		n.assembling++
	}
	if !st.traced {
		// An assembly opened by a bare advert has no hop context; the
		// first sampled symbol supplies it.
		st.adoptHop(m.Hop)
	}
	sym := st.sym
	if sym.failed {
		return
	}
	if m.K != sym.k || m.N != sym.total || m.PayloadLen != sym.payloadLen ||
		m.Index >= sym.total || len(m.Data) != sym.symbolSize() {
		n.stats.SymbolsRejected++
		return
	}
	idx := int(m.Index)
	if sym.have.Has(idx) || !n.store.PutSymbol(sid(m.ID), idx, m.Data, sym.meta(), n.env.Now()) {
		// Already held, or tombstoned / geometry clash inside the store.
		n.stats.SymbolDups++
	} else {
		sym.have.Add(idx)
		sym.haveCnt++
		n.stats.SymbolsRecv++
		kind := dtrace.KindSymbolPull
		if m.ViaTree {
			kind = dtrace.KindSymbolTree
		}
		if st.traced && n.emits(kind) {
			s := n.msgSpan(kind, m.ID, from, m.Hop.Hops, n.ageOf(st), true)
			s.Aux = int64(idx)
			n.observe(s)
		}
		if m.ViaTree {
			// Only tree-borne symbols travel on down the tree. A child
			// pulls what it misses as soon as this node completes, so
			// re-striping pulled symbols too mostly duplicates that
			// (live-bulk: symbol dup share 0.37 against 0.08, a fifth
			// fewer messages per second) and refills the hottest link.
			n.forwardSymbol(m.ID, st, m.Index, m.Data, from)
		}
	}
	if sym.complete {
		return
	}
	if sym.haveCnt >= int(sym.k) {
		n.completeAssembly(m.ID, st, from)
	} else if !m.ViaTree && sym.batchOver(from, idx) && !n.pullSymbols(m.ID, st) {
		if set := sym.inflight(); !set.AnyNotIn(&sym.have) {
			// Stuck below K with nothing on its way and every holder at
			// its share: offer what is held, so partial neighbors trade.
			n.advertiseNow(m.ID, st)
		}
	}
}

// batchOver reports whether symbol idx from holder `from` ends the batch
// that holder was last asked for, and if so closes it. A holder serves a
// pull in index order over a FIFO link, so the highest index asked ends
// the batch: whatever else it was asked for and is still missing was lost
// on the way and leaves the in-flight set, to be asked for again at once
// rather than after PullRetry.
func (s *symState) batchOver(from NodeID, idx int) bool {
	h := s.holder(from)
	if h == nil || h.last != idx {
		return false
	}
	h.last = -1
	for w := range h.asked {
		h.asked[w] &= s.have[w]
	}
	return true
}

// completeAssembly runs once the K-th symbol lands: reconstruct the
// remaining symbols, deliver the payload, and store all N so this node can
// serve any future pull.
func (n *Node) completeAssembly(id MessageID, st *msgState, from NodeID) {
	sym := st.sym
	total := int(sym.total)
	held := sym.haveCnt
	// Either outcome ends the in-progress assembly.
	n.assembling--
	p := fec.Params{K: int(sym.k), R: total - int(sym.k), SymbolSize: sym.symbolSize()}
	coder, err := n.coderFor(p)
	if cap(n.symBufs) < total {
		n.symBufs = make([][]byte, total)
	}
	syms := n.symBufs[:total]
	// The scratch must not pin symbol buffers past this call.
	defer clear(syms)
	if err == nil {
		n.store.RangeSymbols(sid(id), func(i int, data []byte) bool {
			syms[i] = data
			return true
		})
		err = coder.Reconstruct(syms)
	}
	if err != nil {
		sym.failed = true
		sym.timer.Stop()
		n.stats.FECDecodeFailures++
		return
	}
	payload := fec.Join(syms, p, int(sym.payloadLen))
	meta := sym.meta()
	for i := 0; i < total; i++ {
		if !sym.have.Has(i) {
			n.store.PutSymbol(sid(id), i, syms[i], meta, n.env.Now())
			sym.have.Add(i)
		}
	}
	sym.haveCnt = total
	sym.complete = true
	sym.holders = nil
	sym.timer.Stop()
	sym.pullArmed = false
	n.stats.FECDecodes++
	n.stats.PayloadsRecv++
	n.advertiseNow(id, st)
	n.deliverLocal(id, st, payload)
	if n.emits(dtrace.KindReassembly) {
		s := n.msgSpan(dtrace.KindReassembly, id, from, st.hops, n.ageOf(st), st.traced)
		s.Start, s.Aux = st.receivedAt, int64(held)
		n.observe(s)
	}
}

// handleSymbolAdvert ingests one coopcast entry of a gossip summary.
func (n *Node) handleSymbolAdvert(from NodeID, ad *SymbolAdvert, linkLat time.Duration) {
	key := pid(ad.ID)
	peerComplete := ad.Have.Count() >= int(ad.K)
	if st, ok := n.seen[key]; ok {
		if st.sym == nil {
			// We hold the whole payload; a peer advertising >= K symbols
			// can reconstruct it and never needs an announcement from us.
			if peerComplete {
				st.heardMask |= n.slotBit(from)
			}
			return
		}
		sym := st.sym
		if peerComplete {
			st.heardMask |= n.slotBit(from)
		} else if sym.complete {
			// The peer is stuck partial while we are complete — the
			// symbol-level liveness hole watermark sync cannot see (the ID
			// is inside the peer's watermark). Re-open announcements toward
			// it so our next gossip re-advertises our full bitmap and the
			// peer pulls what it misses from us.
			if bit := n.slotBit(from); bit != 0 {
				st.announcedMask &^= bit
				st.heardMask &^= bit
			}
			if st.announceDone {
				st.announceDone = false
				n.recent = append(n.recent, ad.ID)
				n.store.Unstable(sid(ad.ID))
				n.stats.Reannounced++
			}
		}
		if sym.complete || sym.failed {
			return
		}
		if ad.K != sym.k || ad.N != sym.total || ad.PayloadLen != sym.payloadLen {
			n.stats.SymbolsRejected++
			return
		}
		n.noteSymbolHolder(ad.ID, st, from, &ad.Have)
		return
	}
	// First news of this message: start an empty assembly and pull.
	if !validGeometry(ad.K, ad.N, ad.PayloadLen) {
		n.stats.SymbolsRejected++
		return
	}
	st := n.getMsgState()
	st.receivedAt = n.env.Now()
	st.ageAtReceipt = ad.Age + linkLat
	st.sym = &symState{k: ad.K, total: ad.N, payloadLen: ad.PayloadLen}
	n.seen[key] = st
	n.recent = append(n.recent, ad.ID)
	n.assembling++
	if peerComplete {
		st.heardMask |= n.slotBit(from)
	}
	n.noteSymbolHolder(ad.ID, st, from, &ad.Have)
}

// noteSymbolHolder records (or refreshes) a holder's advertised bitmap and
// pulls what it newly makes available at once. Only the first pull can be
// held back: it waits out PullDelay from the message's estimated
// injection, giving the tree stripes the same head start whole-message
// pulls grant the tree.
func (n *Node) noteSymbolHolder(id MessageID, st *msgState, from NodeID, have *store.SymbolSet) {
	sym := st.sym
	if h := sym.holder(from); h != nil {
		h.have = *have
	} else {
		sym.holders = append(sym.holders, symHolder{id: from, have: *have, last: -1})
	}
	if st.traced && n.emits(dtrace.KindAdvert) {
		s := n.msgSpan(dtrace.KindAdvert, id, from, st.hops, n.ageOf(st), true)
		s.Aux = int64(have.Count())
		n.observe(s)
	}
	if wait := n.cfg.PullDelay - n.ageOf(st); wait > 0 {
		if !sym.pullArmed {
			sym.pullArmed = true
			sym.timer = n.env.After(wait, func() { n.retrySymbolPulls(id) })
		}
		return
	}
	n.pullSymbols(id, st)
}

// pullSymbols requests every missing symbol that is not in flight and that
// some holder with room in its share advertises, each from exactly one
// holder, rotating through the holder list so repair load spreads; it
// reports whether it asked for anything. That is up to N - have symbols
// where K - have would decode: on a link that sheds repair frames one lost
// symbol would otherwise cost a whole PullRetry. The scan starts at an
// index derived from the node ID, so neighbors capped on the same holder
// end up with different subsets they can trade. Each request restarts the
// loss timer.
func (n *Node) pullSymbols(id MessageID, st *msgState) bool {
	sym := st.sym
	holders := sym.holders
	if cap(n.symWants) < len(holders) {
		n.symWants = make([]store.SymbolSet, len(holders))
	}
	wants := n.symWants[:len(holders)]
	clear(wants)
	total := int(sym.total)
	share := n.pullShare(total)
	inflight := sym.inflight()
	start := int(uint32(n.id) * 2654435761 % uint32(total))
	requested, cursor := false, sym.nextHolder
	for c := 0; c < total; c++ {
		i := (start + c) % total
		if sym.have.Has(i) || inflight.Has(i) {
			continue
		}
		for j := 0; j < len(holders); j++ {
			h := (cursor + j) % len(holders)
			if holders[h].have.Has(i) && holders[h].asked.Count() < share {
				wants[h].Add(i)
				holders[h].asked.Add(i)
				cursor = h + 1
				requested = true
				break
			}
		}
	}
	if !requested {
		// Nothing new to ask for; a fresher advert or the loss timer
		// re-opens the round.
		return false
	}
	sym.nextHolder = cursor % len(holders)
	for h := range wants {
		if wants[h].Empty() {
			continue
		}
		holders[h].last = wants[h].Max()
		n.stats.SymbolPullsSent++
		if n.emits(dtrace.KindPull) {
			s := n.msgSpan(dtrace.KindPull, id, holders[h].id, st.hops, n.ageOf(st), st.traced)
			s.Start, s.Aux = st.receivedAt, int64(wants[h].Count())
			n.observe(s)
		}
		n.env.Send(holders[h].id, &SymbolPull{ID: id, Want: wants[h]})
	}
	sym.timer.Stop()
	sym.pullArmed = true
	sym.timer = n.env.After(n.cfg.PullRetry, func() { n.retrySymbolPulls(id) })
	return true
}

// retrySymbolPulls is the loss timer: PullRetry has passed since the last
// request (or the PullDelay head start is over) and the message is still
// incomplete, so what is in flight is taken as lost. A holder that served
// none of what it was asked for — it evicted the message, or is gone — is
// dropped while another holder remains, so retries go to holders that can
// serve; its next advert re-adds it.
func (n *Node) retrySymbolPulls(id MessageID) {
	if !n.running {
		return
	}
	st, ok := n.seen[pid(id)]
	if !ok || st.sym == nil {
		return
	}
	sym := st.sym
	sym.pullArmed = false
	if sym.complete || sym.failed {
		return
	}
	kept := sym.holders[:0]
	for _, h := range sym.holders {
		if h.asked.Empty() || h.asked.Intersects(&sym.have) {
			kept = append(kept, h)
		}
	}
	if len(kept) > 0 {
		// With nobody responsive, keep them all rather than stop asking.
		sym.holders = kept
	}
	for i := range sym.holders {
		sym.holders[i].asked, sym.holders[i].last = store.SymbolSet{}, -1
	}
	n.pullSymbols(id, st)
}

// handleSymbolPull serves the wanted symbols this node holds. Symbols it
// lacks are silently skipped: the puller's retry round and the next advert
// exchange redirect the request, so no miss indication is needed at
// symbol granularity.
func (n *Node) handleSymbolPull(from NodeID, m *SymbolPull) {
	meta, have, ok := n.store.SymbolInfo(sid(m.ID))
	if !ok {
		return
	}
	var age time.Duration
	var hop Hop
	if st := n.seen[pid(m.ID)]; st != nil {
		age = n.ageOf(st)
		hop = n.hopOf(st)
	}
	for i := 0; i < int(meta.N); i++ {
		if !m.Want.Has(i) || !have.Has(i) {
			continue
		}
		data, ok := n.store.GetSymbol(sid(m.ID), i)
		if !ok {
			continue
		}
		n.stats.SymbolsServed++
		n.env.Send(from, &Symbol{
			ID: m.ID, Age: age, Index: uint16(i),
			K: meta.K, N: meta.N, PayloadLen: meta.PayloadLen,
			Data: data, ViaTree: false, Hop: hop,
		})
	}
}

// EagerAdverts reports how many symbol adverts this node sent at once,
// outside the gossip round. It is an accessor and not a Counters field
// because the field set of Counters is part of the simulation benchmark's
// result digest, which a change to coopcast — off in those workloads —
// must leave bit-identical. Must run on the node's logical thread.
func (n *Node) EagerAdverts() int64 { return n.eagerAdverts }

// Assembling reports the node's in-progress coopcast reassemblies: how
// many messages sit between first symbol and decode, and the age of the
// oldest such assembly (0 when none). The count is O(1); the oldest-age
// scan only runs while assemblies exist. Must run on the node's logical
// thread.
func (n *Node) Assembling() (count int, oldest time.Duration) {
	if n.assembling <= 0 {
		return 0, 0
	}
	now := n.env.Now()
	for _, st := range n.seen {
		if st.sym != nil && !st.sym.complete && !st.sym.failed {
			count++
			if age := now - st.receivedAt; age > oldest {
				oldest = age
			}
		}
	}
	return count, oldest
}
