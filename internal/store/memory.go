package store

import (
	"sort"
	"time"
)

// Memory buffers multicast payloads between receipt and reclamation: a
// hash map for O(1) lookup, per-source sorted sequence indexes for ordered
// range scans and digests, FIFO eviction against the count and byte caps,
// and stability-based reclamation with an age fallback. It is not
// goroutine safe: core drives every method, Counters, Len and Bytes
// included, from the node's event loop.
//
// Records live in a slab: the map stores slot indices into one flat
// []memRec, and dropped slots are recycled through a free list. In
// steady state Put costs zero allocations (amortized map and slab
// growth aside) where a map of *memRec would heap-allocate one record
// per message.
type Memory struct {
	limits Limits

	// recs maps the packed (source, seq) pair to the record's slab slot.
	// A uint64 key takes the runtime's fast map path, where the two-field
	// struct key would hash through the generic path on every Put/Get/Has.
	recs map[uint64]int32
	// slab backs every record, live or tombstoned; free lists the slots
	// of dropped tombstones for reuse. Slab pointers are only valid until
	// the next alloc — helpers re-derive &slab[i] after any growth.
	slab []memRec
	free []int32
	// bySource holds each source's live sequence numbers in ascending
	// order (payloads arrive in order per source on the hot path, so
	// inserts are usually appends). Drained sources keep their empty
	// slice so a source that cycles through GC and re-appears reuses the
	// capacity instead of reallocating; sources are node identities, so
	// the map is bounded by group size.
	bySource map[int32][]uint32
	// evictQ is insertion-ordered live IDs; eviction pops from the front,
	// lazily skipping records already reclaimed by GC.
	evictQ []ID
	bytes  int64
	live   int

	ctr memCounts
}

// memCounts are the store's activity counters, reported by Counters under
// the names given there.
type memCounts struct {
	puts, duplicatePuts                                 int64
	symbolPuts, duplicateSymbolPuts, rejectedSymbolPuts int64
	evictions, reclaimsStable, reclaimsAged             int64
	tombstonesDropped                                   int64
}

type memRec struct {
	payload  []byte
	storedAt time.Duration
	// syms non-nil marks a symbol-granular (coopcast) record: the slice is
	// meta.N long with nil entries for symbols not yet held. The record
	// occupies one count-cap slot and one digest sequence number like a
	// whole record; its bytes accumulate symbol by symbol.
	syms    [][]byte
	symMeta SymbolMeta
	have    SymbolSet
	// releaseAt > 0 marks the record stable: every current neighbor had
	// the message at MarkStable time, and the payload may be reclaimed
	// once releaseAt passes.
	releaseAt time.Duration
	// reclaimed records linger as payload-less tombstones for duplicate
	// suppression until dropAt.
	reclaimed bool
	dropAt    time.Duration
}

// pk packs an ID into the uint64 map key.
func pk(id ID) uint64 { return uint64(uint32(id.Source))<<32 | uint64(id.Seq) }

// unpk reverses pk.
func unpk(k uint64) ID { return ID{Source: int32(k >> 32), Seq: uint32(k)} }

// NewMemory builds an empty bounded in-memory store. Nothing is
// pre-sized: simulations instantiate one store per node, most of which
// stay nearly empty, so reserving the count cap up front would multiply
// the swarm's footprint by orders of magnitude.
func NewMemory(limits Limits) *Memory {
	return &Memory{
		limits:   limits.withDefaults(),
		recs:     make(map[uint64]int32),
		bySource: make(map[int32][]uint32),
	}
}

// Limits returns the store's resolved (defaulted) limits.
func (m *Memory) Limits() Limits { return m.limits }

// alloc claims a zeroed slab slot, recycling a dropped one when possible.
func (m *Memory) alloc() int32 {
	if n := len(m.free); n > 0 {
		i := m.free[n-1]
		m.free = m.free[:n-1]
		m.slab[i] = memRec{}
		return i
	}
	if len(m.slab) == cap(m.slab) {
		// Doubling, except a store that has demonstrably grown large (past
		// 512 records) jumps straight to its count cap: one resize for the
		// rest of its life instead of several more allocate-zero-copy
		// rounds. Small stores — the overwhelming majority in a simulated
		// swarm — never overallocate.
		newCap := cap(m.slab) * 2
		if newCap < 32 {
			newCap = 32
		}
		if mm := m.limits.MaxMessages; mm > 0 && mm <= 1<<20 &&
			cap(m.slab) >= 512 && newCap < mm+1 {
			newCap = mm + 1
		}
		grown := make([]memRec, len(m.slab), newCap)
		copy(grown, m.slab)
		m.slab = grown
	}
	m.slab = append(m.slab, memRec{})
	return int32(len(m.slab) - 1)
}

// lookup resolves an ID to its slab record, nil if unknown.
func (m *Memory) lookup(id ID) *memRec {
	if i, ok := m.recs[pk(id)]; ok {
		return &m.slab[i]
	}
	return nil
}

// Put inserts a payload under id at time now. It reports false (and
// stores nothing) if the ID is already present, reclaimed or not.
// Inserting may evict the oldest live records to respect the caps.
func (m *Memory) Put(id ID, payload []byte, now time.Duration) bool {
	k := pk(id)
	if _, ok := m.recs[k]; ok {
		m.ctr.duplicatePuts++
		return false
	}
	i := m.alloc()
	r := &m.slab[i]
	r.payload, r.storedAt = payload, now
	m.recs[k] = i
	m.insertSeq(id)
	m.evictQ = append(m.evictQ, id)
	m.bytes += int64(len(payload))
	m.live++
	m.ctr.puts++
	m.enforceCaps(now)
	return true
}

// enforceCaps reclaims the oldest live records until the count and byte
// caps hold again. The newest record is evicted only if it alone exceeds
// the byte cap.
func (m *Memory) enforceCaps(now time.Duration) {
	overCount := func() bool { return m.limits.MaxMessages > 0 && m.live > m.limits.MaxMessages }
	overBytes := func() bool { return m.limits.MaxBytes > 0 && m.bytes > m.limits.MaxBytes }
	for (overCount() || overBytes()) && len(m.evictQ) > 0 {
		id := m.evictQ[0]
		m.evictQ = m.evictQ[1:]
		r := m.lookup(id)
		if r == nil || r.reclaimed {
			continue // lazily skip records GC reclaimed first
		}
		m.reclaim(id, r, now)
		m.ctr.evictions++
	}
}

// reclaim frees the payload (or every held symbol) and leaves a tombstone.
func (m *Memory) reclaim(id ID, r *memRec, now time.Duration) {
	m.bytes -= int64(len(r.payload))
	for _, s := range r.syms {
		m.bytes -= int64(len(s))
	}
	r.payload = nil
	r.syms = nil
	r.have = SymbolSet{}
	r.reclaimed = true
	r.dropAt = now + m.limits.TombstoneFor
	m.live--
	m.removeSeq(id)
}

// Get returns the payload, or ok=false if the ID is absent, its payload
// has been reclaimed or evicted, or the record is symbol-granular (use
// GetSymbol / RangeSymbols for those).
func (m *Memory) Get(id ID) ([]byte, bool) {
	r := m.lookup(id)
	if r == nil || r.reclaimed || r.syms != nil {
		return nil, false
	}
	return r.payload, true
}

// PutSymbol inserts one erasure-coded symbol of a symbol-granular
// (coopcast) record. The first symbol creates the record — which occupies
// exactly one slot in the count cap, the digest, and the eviction queue,
// same as a whole record — and fixes its geometry; later symbols must
// match it. It reports false for duplicate or out-of-range indexes,
// geometry mismatches, reclaimed records, and IDs already held as whole
// payloads. Symbol bytes count against the byte cap as they arrive, so a
// flood of partial messages evicts oldest-first exactly like whole
// payloads.
func (m *Memory) PutSymbol(id ID, idx int, data []byte, meta SymbolMeta, now time.Duration) bool {
	if meta.K == 0 || meta.N < meta.K || int(meta.N) > SymbolWords*64 || idx < 0 || idx >= int(meta.N) {
		m.ctr.rejectedSymbolPuts++
		return false
	}
	r := m.lookup(id)
	if r == nil {
		i := m.alloc()
		r = &m.slab[i]
		r.storedAt, r.syms, r.symMeta = now, make([][]byte, meta.N), meta
		m.recs[pk(id)] = i
		m.insertSeq(id)
		m.evictQ = append(m.evictQ, id)
		m.live++
		m.ctr.puts++
	}
	if r.reclaimed || r.syms == nil || r.symMeta != meta || r.have.Has(idx) {
		m.ctr.duplicateSymbolPuts++
		return false
	}
	r.syms[idx] = data
	r.have.Add(idx)
	m.bytes += int64(len(data))
	m.ctr.symbolPuts++
	m.enforceCaps(now)
	return true
}

// GetSymbol returns one held symbol of a live symbol-granular record.
func (m *Memory) GetSymbol(id ID, idx int) ([]byte, bool) {
	r := m.lookup(id)
	if r == nil || r.reclaimed || r.syms == nil || !r.have.Has(idx) {
		return nil, false
	}
	return r.syms[idx], true
}

// SymbolInfo reports a live symbol-granular record's geometry and the
// bitmap of symbols currently held. ok is false for whole records,
// reclaimed records, and unknown IDs.
func (m *Memory) SymbolInfo(id ID) (SymbolMeta, SymbolSet, bool) {
	r := m.lookup(id)
	if r == nil || r.reclaimed || r.syms == nil {
		return SymbolMeta{}, SymbolSet{}, false
	}
	return r.symMeta, r.have, true
}

// RangeSymbols visits a live symbol-granular record's held symbols in
// ascending index order, stopping early when visit returns false.
func (m *Memory) RangeSymbols(id ID, visit func(idx int, data []byte) bool) {
	r := m.lookup(id)
	if r == nil || r.reclaimed || r.syms == nil {
		return
	}
	for i, s := range r.syms {
		if !r.have.Has(i) {
			continue
		}
		if !visit(i, s) {
			return
		}
	}
}

// Has reports whether the ID is known at all — live or tombstoned — for
// duplicate suppression.
func (m *Memory) Has(id ID) bool {
	_, ok := m.recs[pk(id)]
	return ok
}

// MarkStable records that every current overlay neighbor has the message
// (heard or acked via gossip): its payload becomes reclaimable Retention
// after now. Unknown or reclaimed IDs are ignored.
func (m *Memory) MarkStable(id ID, now time.Duration) {
	if r := m.lookup(id); r != nil && !r.reclaimed {
		r.releaseAt = now + m.limits.Retention
	}
}

// Unstable cancels a pending reclamation (a new neighbor appeared that
// may still need the payload). Ignored for reclaimed IDs.
func (m *Memory) Unstable(id ID) {
	if r := m.lookup(id); r != nil && !r.reclaimed {
		r.releaseAt = 0
	}
}

// Digest summarizes live holdings as per-source watermark ranges, sorted
// by source for deterministic wire encoding. Symbol-granular records
// contribute exactly one sequence number each, the same as whole records,
// from their very first symbol: the digest's shape — and therefore the
// watermark sync protocol's interior-hole caveat — is unchanged by
// coopcast. A partially-assembled message sits inside the watermark and is
// invisible to sync by design; the gossip symbol-advert/pull layer owns
// completing it.
func (m *Memory) Digest() []SourceRange {
	return m.DigestAppend(nil)
}

// DigestAppend appends the digest to dst, reusing its capacity. Callers
// that summarize the store repeatedly (the sync responder path) pass a
// retained scratch slice to keep the per-exchange cost allocation-free.
func (m *Memory) DigestAppend(dst []SourceRange) []SourceRange {
	if cap(dst) < len(m.bySource) {
		dst = make([]SourceRange, 0, len(m.bySource))
	}
	out := dst[:0]
	for src, seqs := range m.bySource {
		if len(seqs) == 0 {
			continue
		}
		out = append(out, SourceRange{Source: src, Low: seqs[0], High: seqs[len(seqs)-1]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// Range visits the live messages of one source with low <= Seq <= high
// in ascending sequence order, stopping early when visit returns false.
// Symbol-granular records are visited with a nil payload; callers page
// their symbols via SymbolInfo/RangeSymbols.
func (m *Memory) Range(source int32, low, high uint32, visit func(id ID, payload []byte) bool) {
	seqs := m.bySource[source]
	i := sort.Search(len(seqs), func(k int) bool { return seqs[k] >= low })
	for ; i < len(seqs) && seqs[i] <= high; i++ {
		id := ID{Source: source, Seq: seqs[i]}
		r := m.lookup(id)
		if r == nil || r.reclaimed {
			continue
		}
		if !visit(id, r.payload) {
			return
		}
	}
}

// GC performs one sweep at time now: stable payloads past their retention
// window and unstable payloads past MaxAge are reclaimed; tombstones past
// TombstoneFor are dropped and their slab slots recycled. A
// symbol-granular record that never completed (and so was never marked
// stable) falls under the MaxAge fallback — partial messages cannot leak.
func (m *Memory) GC(now time.Duration) GCResult {
	var res GCResult
	for k, i := range m.recs {
		r := &m.slab[i]
		id := unpk(k)
		if r.reclaimed {
			if now >= r.dropAt {
				delete(m.recs, k)
				m.free = append(m.free, i)
				res.Dropped = append(res.Dropped, id)
				m.ctr.tombstonesDropped++
			}
			continue
		}
		if r.releaseAt > 0 && now >= r.releaseAt {
			m.reclaim(id, r, now)
			res.Reclaimed = append(res.Reclaimed, id)
			m.ctr.reclaimsStable++
		} else if now-r.storedAt >= m.limits.MaxAge {
			m.reclaim(id, r, now)
			res.Reclaimed = append(res.Reclaimed, id)
			m.ctr.reclaimsAged++
		}
	}
	// Compact the eviction queue: records reclaimed by this or earlier
	// sweeps no longer need an eviction slot, and leaving them would let
	// the queue grow without bound in steady state.
	q := m.evictQ[:0]
	for _, id := range m.evictQ {
		if r := m.lookup(id); r != nil && !r.reclaimed {
			q = append(q, id)
		}
	}
	m.evictQ = q
	return res
}

// Len returns the number of live records.
func (m *Memory) Len() int { return m.live }

// Bytes returns the live payload bytes held.
func (m *Memory) Bytes() int64 { return m.bytes }

// Counters snapshots the store's activity counters (inserts, evictions,
// reclaims, drops, ...), every name present from the start.
func (m *Memory) Counters() map[string]int64 {
	c := &m.ctr
	return map[string]int64{
		"puts":                  c.puts,
		"duplicate_puts":        c.duplicatePuts,
		"symbol_puts":           c.symbolPuts,
		"duplicate_symbol_puts": c.duplicateSymbolPuts,
		"rejected_symbol_puts":  c.rejectedSymbolPuts,
		"evictions":             c.evictions,
		"reclaims_stable":       c.reclaimsStable,
		"reclaims_aged":         c.reclaimsAged,
		"tombstones_dropped":    c.tombstonesDropped,
	}
}

// insertSeq adds id.Seq to its source's sorted index.
func (m *Memory) insertSeq(id ID) {
	seqs := m.bySource[id.Source]
	if n := len(seqs); n == 0 || seqs[n-1] < id.Seq {
		m.bySource[id.Source] = append(seqs, id.Seq)
		return
	}
	i := sort.Search(len(seqs), func(k int) bool { return seqs[k] >= id.Seq })
	seqs = append(seqs, 0)
	copy(seqs[i+1:], seqs[i:])
	seqs[i] = id.Seq
	m.bySource[id.Source] = seqs
}

// removeSeq deletes id.Seq from its source's sorted index, keeping the
// drained slice (and its capacity) for the source's next burst.
func (m *Memory) removeSeq(id ID) {
	seqs := m.bySource[id.Source]
	i := sort.Search(len(seqs), func(k int) bool { return seqs[k] >= id.Seq })
	if i >= len(seqs) || seqs[i] != id.Seq {
		return
	}
	m.bySource[id.Source] = append(seqs[:i], seqs[i+1:]...)
}
