// Package store provides the bounded multicast message store behind
// GoCast's dissemination and anti-entropy recovery paths. The dissemination
// layer (internal/core) buffers every multicast payload so gossip pulls and
// digest-based sync can repair whatever the tree drops; this package owns
// that buffer's lifecycle — O(1) lookup, ordered per-source ID-range scans
// for sync, stability-based reclamation, and hard count/byte caps that keep
// memory flat under sustained traffic.
//
// The package is deliberately independent of internal/core (core imports
// it, not the other way around), so alternative implementations — disk
// spill, sharded, instrumented test doubles — can be swapped in through
// core's configuration without touching protocol code.
package store

import (
	"math/bits"
	"time"
)

// ID identifies one multicast message: the injecting node's ID (as a raw
// int32, mirroring core.NodeID) plus that node's local sequence number.
type ID struct {
	Source int32
	Seq    uint32
}

// SourceRange summarizes one source's stored messages as a low/high
// sequence watermark pair: the store holds (possibly with gaps) payloads
// for sequence numbers in [Low, High]. Digest exchanges between peers are
// vectors of these ranges.
type SourceRange struct {
	Source    int32
	Low, High uint32
}

// Limits bounds a store. The zero value selects the documented defaults.
type Limits struct {
	// MaxMessages caps live (payload-holding) records; the oldest are
	// evicted first. 0 selects DefaultMaxMessages; negative is unlimited.
	MaxMessages int
	// MaxBytes caps total payload bytes. 0 selects DefaultMaxBytes;
	// negative is unlimited.
	MaxBytes int64
	// Retention is how long a stable message's payload is kept for pulls
	// and sync after every neighbor was seen to have it (the paper's
	// waiting period b). 0 selects DefaultRetention.
	Retention time.Duration
	// MaxAge is the fallback bound for messages that never become stable
	// (e.g. a neighbor that never acknowledges): their payload is
	// reclaimed MaxAge after insertion regardless. 0 selects 2*Retention.
	MaxAge time.Duration
	// TombstoneFor is how long a reclaimed record lingers (payload freed)
	// purely for duplicate suppression before being forgotten entirely.
	// 0 selects Retention.
	TombstoneFor time.Duration
}

// Default limits.
const (
	DefaultMaxMessages = 16384
	DefaultMaxBytes    = 64 << 20 // 64 MiB
	DefaultRetention   = 2 * time.Minute
)

// withDefaults resolves zero fields to the documented defaults.
func (l Limits) withDefaults() Limits {
	if l.MaxMessages == 0 {
		l.MaxMessages = DefaultMaxMessages
	}
	if l.MaxBytes == 0 {
		l.MaxBytes = DefaultMaxBytes
	}
	if l.Retention <= 0 {
		l.Retention = DefaultRetention
	}
	if l.MaxAge <= 0 {
		l.MaxAge = 2 * l.Retention
	}
	if l.TombstoneFor <= 0 {
		l.TombstoneFor = l.Retention
	}
	return l
}

// SymbolMeta describes the erasure-coding geometry of a symbol-granular
// (coopcast) record: K source symbols, N total symbols, and the original
// payload length. Every holder derives the uniform symbol size as
// ceil(PayloadLen/K), so it is never stored or transmitted.
type SymbolMeta struct {
	K, N       uint16
	PayloadLen uint32
}

// SymbolWords is the fixed word count of a SymbolSet bitmap, sized for the
// coder's maximum of 256 symbols per message.
const SymbolWords = 4

// SymbolSet is a bitmap over the symbol indexes [0, 256) of one coopcast
// message. The zero value is empty; it is a small array, copy it freely.
type SymbolSet [SymbolWords]uint64

// Has reports whether symbol index i is in the set.
func (s *SymbolSet) Has(i int) bool {
	return uint(i) < SymbolWords*64 && s[i>>6]&(1<<(uint(i)&63)) != 0
}

// Add inserts symbol index i; out-of-range indexes are ignored.
func (s *SymbolSet) Add(i int) {
	if uint(i) < SymbolWords*64 {
		s[i>>6] |= 1 << (uint(i) & 63)
	}
}

// Remove deletes symbol index i.
func (s *SymbolSet) Remove(i int) {
	if uint(i) < SymbolWords*64 {
		s[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// Count returns the number of symbols in the set.
func (s *SymbolSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set holds no symbols.
func (s *SymbolSet) Empty() bool {
	return s[0]|s[1]|s[2]|s[3] == 0
}

// AnyNotIn reports whether the set holds a symbol that other lacks.
func (s *SymbolSet) AnyNotIn(other *SymbolSet) bool {
	for w := range s {
		if s[w]&^other[w] != 0 {
			return true
		}
	}
	return false
}

// Max returns the highest symbol index in the set, -1 when it is empty.
func (s *SymbolSet) Max() int {
	for w := SymbolWords - 1; w >= 0; w-- {
		if s[w] != 0 {
			return w<<6 + bits.Len64(s[w]) - 1
		}
	}
	return -1
}

// Intersects reports whether the two sets share a symbol.
func (s *SymbolSet) Intersects(other *SymbolSet) bool {
	for w := range s {
		if s[w]&other[w] != 0 {
			return true
		}
	}
	return false
}

// GCResult reports one garbage-collection sweep.
type GCResult struct {
	// Reclaimed lists messages whose payload was freed this sweep (the
	// record lingers as a tombstone for duplicate suppression).
	Reclaimed []ID
	// Dropped lists records forgotten entirely; callers tracking
	// per-message state keyed by ID should discard theirs too.
	Dropped []ID
}

// MessageStore buffers multicast payloads between receipt and reclamation.
// Implementations are not required to be goroutine-safe: core drives the
// store from a node's single logical thread. All times are substrate clock
// readings supplied by the caller (simulated or real), never wall-clock
// reads taken by the store itself.
type MessageStore interface {
	// Put inserts a payload under id at time now. It reports false (and
	// stores nothing) if the ID is already present, reclaimed or not.
	// Inserting may evict the oldest live records to respect the caps.
	Put(id ID, payload []byte, now time.Duration) bool
	// Get returns the payload, or ok=false if the ID is absent, its
	// payload has been reclaimed or evicted, or the record is
	// symbol-granular (use GetSymbol / RangeSymbols for those).
	Get(id ID) (payload []byte, ok bool)
	// Has reports whether the ID is known at all — live or tombstoned —
	// for duplicate suppression.
	Has(id ID) bool
	// MarkStable records that every current overlay neighbor has the
	// message (heard or acked via gossip): its payload becomes
	// reclaimable Retention after now. Unknown or reclaimed IDs are
	// ignored.
	MarkStable(id ID, now time.Duration)
	// Unstable cancels a pending reclamation (a new neighbor appeared
	// that may still need the payload). Ignored for reclaimed IDs.
	Unstable(id ID)
	// Digest summarizes live holdings as per-source watermark ranges,
	// sorted by source for deterministic wire encoding. Symbol-granular
	// records contribute exactly one sequence number each, the same as
	// whole records, from their very first symbol: the digest's shape —
	// and therefore the watermark sync protocol's interior-hole caveat —
	// is unchanged by coopcast. A partially-assembled message sits inside
	// the watermark and is invisible to sync by design; the gossip
	// symbol-advert/pull layer owns completing it.
	Digest() []SourceRange
	// Range visits the live messages of one source with Low <= Seq <=
	// High in ascending sequence order, stopping early when visit
	// returns false. Symbol-granular records are visited with a nil
	// payload; callers page their symbols via SymbolInfo/RangeSymbols.
	Range(source int32, low, high uint32, visit func(id ID, payload []byte) bool)
	// PutSymbol inserts one erasure-coded symbol of a symbol-granular
	// (coopcast) record. The first symbol creates the record — which
	// occupies exactly one slot in the count cap, the digest, and the
	// eviction queue, same as a whole record — and fixes its geometry;
	// later symbols must match it. It reports false for duplicate or
	// out-of-range indexes, geometry mismatches, reclaimed records, and
	// IDs already held as whole payloads. Symbol bytes count against the
	// byte cap as they arrive, so a flood of partial messages evicts
	// oldest-first exactly like whole payloads.
	PutSymbol(id ID, idx int, data []byte, meta SymbolMeta, now time.Duration) bool
	// GetSymbol returns one held symbol of a live symbol-granular record.
	GetSymbol(id ID, idx int) (data []byte, ok bool)
	// SymbolInfo reports a live symbol-granular record's geometry and the
	// bitmap of symbols currently held. ok is false for whole records,
	// reclaimed records, and unknown IDs.
	SymbolInfo(id ID) (meta SymbolMeta, have SymbolSet, ok bool)
	// RangeSymbols visits a live symbol-granular record's held symbols in
	// ascending index order, stopping early when visit returns false.
	RangeSymbols(id ID, visit func(idx int, data []byte) bool)
	// GC performs one sweep at time now: stable payloads past their
	// retention window and unstable payloads past MaxAge are reclaimed;
	// tombstones past TombstoneFor are dropped. A symbol-granular record
	// that never completed (and so was never marked stable) falls under
	// the MaxAge fallback — partial messages cannot leak.
	GC(now time.Duration) GCResult
	// Len returns the number of live (payload-holding) records.
	Len() int
	// Bytes returns the total payload bytes currently held.
	Bytes() int64
	// Counters snapshots the store's activity counters (inserts,
	// evictions, reclaims, drops, ...).
	Counters() map[string]int64
}
