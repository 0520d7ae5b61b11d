package core

import "fmt"

// memberTable is the partial view's backing store: a dense record slice
// for scan- and sample-heavy access plus a compact position index for
// O(1) lookup. Sampling walks the dense slice directly and removal is a
// swap with the last element. Slice order is deterministic for a given
// operation history but is NOT insertion order once anything has been
// removed.
//
// A record is 16 bytes, so a full 96-entry view spans 24 cache lines.
// Addresses, which only the live runtime sets, sit in a parallel column
// that is allocated when the first entry with an address is stored.
//
// The index is laid out like a compact dict: a power-of-two array of
// uint16 slots, each 0 (empty) or a dense index plus one, probed linearly
// from the ID's Fibonacci hash and compared through recs[i].id. It stays
// at or below 3/8 load, so the 96-entry view takes 256 slots (512 B) and
// a lookup of an ID that is not in the view, the common case when merging
// gossip, usually stops at its first slot. Deletion shifts later entries
// of the probe run back (no tombstones).
type memberTable struct {
	recs  []viewRec
	addrs []string // nil, or parallel to recs
	slots []uint16
	shift uint8 // 32 - log2(len(slots))
}

// viewRec is one view entry without its address.
type viewRec struct {
	id  NodeID
	inc uint32
	lm  *LandmarkVec
}

// maxViewEntries is the most entries the uint16 index slots can name.
const maxViewEntries = 1<<16 - 1

// indexSlotsFor is the slot count that keeps n entries at or below 3/8
// load: the smallest power of two, at least 8, with 8n <= 3 * slots.
func indexSlotsFor(n int) int {
	s := 8
	for s*3 < n*8 {
		s *= 2
	}
	return s
}

// reserve sizes the records and the index for a view of n entries, the
// most it will hold. A view too large for the index's slot width panics.
func (t *memberTable) reserve(n int) {
	if n > maxViewEntries {
		panic(fmt.Sprintf("core: a view of %d entries exceeds the view index's limit of %d", n, maxViewEntries))
	}
	t.recs = make([]viewRec, 0, n)
	t.rehash(indexSlotsFor(n))
}

// rehash rebuilds the index with the given power-of-two slot count from
// the dense records.
func (t *memberTable) rehash(size int) {
	t.slots = make([]uint16, size)
	t.shift = 32
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	for i := range t.recs {
		t.slots[t.freeSlot(t.recs[i].id)] = uint16(i + 1)
	}
}

// indexBytes returns the size of the index's slot array.
func (t *memberTable) indexBytes() int { return 2 * len(t.slots) }

// home is the slot id hashes to (Fibonacci hashing, as in idTable).
func (t *memberTable) home(id NodeID) int {
	return int(((uint32(id) + 1) * 0x9E3779B9) >> t.shift)
}

// freeSlot returns the first empty slot on id's probe path.
func (t *memberTable) freeSlot(id NodeID) int {
	mask := len(t.slots) - 1
	s := t.home(id)
	for t.slots[s] != 0 {
		s = (s + 1) & mask
	}
	return s
}

// slotOf returns the slot naming dense index i, whose record holds id.
func (t *memberTable) slotOf(id NodeID, i int) int {
	mask := len(t.slots) - 1
	s := t.home(id)
	for int(t.slots[s]) != i+1 {
		s = (s + 1) & mask
	}
	return s
}

func (t *memberTable) len() int { return len(t.recs) }

// index returns id's dense index, or -1 if id is not in the view. It is
// invalidated by any add or remove.
func (t *memberTable) index(id NodeID) int {
	if len(t.recs) == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for s := t.home(id); ; s = (s + 1) & mask {
		v := int(t.slots[s])
		if v == 0 {
			return -1
		}
		if t.recs[v-1].id == id {
			return v - 1
		}
	}
}

// get returns the entry for id, if present.
func (t *memberTable) get(id NodeID) (Entry, bool) {
	if i := t.index(id); i >= 0 {
		return t.at(i), true
	}
	return Entry{}, false
}

// has reports whether id is in the view without copying the entry.
func (t *memberTable) has(id NodeID) bool { return t.index(id) >= 0 }

// at returns the entry at dense index i (0 <= i < len).
func (t *memberTable) at(i int) Entry {
	r := t.recs[i]
	return Entry{ID: r.id, Inc: r.inc, Addr: t.addr(i), Landmarks: r.lm}
}

// addr returns the address stored at dense index i.
func (t *memberTable) addr(i int) string {
	if t.addrs == nil {
		return ""
	}
	return t.addrs[i]
}

// set overwrites the entry at dense index i with e (same ID).
func (t *memberTable) set(i int, e Entry) {
	t.recs[i] = viewRec{id: e.ID, inc: e.Inc, lm: e.Landmarks}
	if e.Addr != "" || t.addrs != nil {
		t.addrColumn()[i] = e.Addr
	}
}

// addrColumn returns the address column, allocating it on first use.
func (t *memberTable) addrColumn() []string {
	if t.addrs == nil {
		t.addrs = make([]string, len(t.recs), cap(t.recs))
	}
	return t.addrs
}

// add appends an entry whose ID is not in the view. None is never an
// entry, and a view past the index's slot width panics.
func (t *memberTable) add(e Entry) {
	if e.ID == None {
		panic("core: memberTable.add(None)")
	}
	if len(t.recs) >= maxViewEntries {
		panic(fmt.Sprintf("core: a view of more than %d entries does not fit the view index", maxViewEntries))
	}
	if (len(t.recs)+1)*8 > len(t.slots)*3 {
		t.rehash(indexSlotsFor(len(t.recs) + 1))
	}
	t.slots[t.freeSlot(e.ID)] = uint16(len(t.recs) + 1)
	if e.Addr != "" || t.addrs != nil {
		t.addrs = append(t.addrColumn(), e.Addr)
	}
	t.recs = append(t.recs, viewRec{id: e.ID, inc: e.Inc, lm: e.Landmarks})
}

// removeAt deletes dense index i by swapping the last entry into its slot
// and returns the removed ID.
func (t *memberTable) removeAt(i int) NodeID {
	id := t.recs[i].id
	last := len(t.recs) - 1
	t.unindex(t.slotOf(id, i))
	if i != last {
		moved := t.recs[last]
		t.recs[i] = moved
		t.slots[t.slotOf(moved.id, last)] = uint16(i + 1)
	}
	t.recs[last] = viewRec{}
	t.recs = t.recs[:last]
	if t.addrs != nil {
		t.addrs[i] = t.addrs[last]
		t.addrs[last] = ""
		t.addrs = t.addrs[:last]
	}
	return id
}

// unindex empties slot s, shifting later entries of its probe run back
// into the hole. It reads their IDs through recs, so it runs before
// removeAt moves any record.
func (t *memberTable) unindex(s int) {
	mask := len(t.slots) - 1
	for j := (s + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at s only if s lies on its
		// probe path, i.e. its home is no closer to j than s is.
		if (j-t.home(t.recs[t.slots[j]-1].id))&mask >= (j-s)&mask {
			t.slots[s] = t.slots[j]
			s = j
		}
	}
	t.slots[s] = 0
}
