package core

// memberTable is the partial view's backing store: a dense record slice
// for scan- and sample-heavy access plus a flat position index for O(1)
// lookup. Sampling walks the dense slice directly and removal is a swap
// with the last element. Slice order is deterministic for a given
// operation history but is NOT insertion order once anything has been
// removed.
//
// A record is 16 bytes, so a full 96-entry view spans 24 cache lines.
// Addresses, which only the live runtime sets, sit in a parallel column
// that is allocated when the first entry with an address is stored.
type memberTable struct {
	recs  []viewRec
	addrs []string // nil, or parallel to recs
	pos   idTable[int32]
}

// viewRec is one view entry without its address.
type viewRec struct {
	id  NodeID
	inc uint32
	lm  *LandmarkVec
}

func (t *memberTable) len() int { return len(t.recs) }

// index returns id's dense index, or -1 if id is not in the view. It is
// invalidated by any add or remove.
func (t *memberTable) index(id NodeID) int {
	if i, ok := t.pos.get(id); ok {
		return int(i)
	}
	return -1
}

// get returns the entry for id, if present.
func (t *memberTable) get(id NodeID) (Entry, bool) {
	if i := t.index(id); i >= 0 {
		return t.at(i), true
	}
	return Entry{}, false
}

// has reports whether id is in the view without copying the entry.
func (t *memberTable) has(id NodeID) bool { return t.pos.has(id) }

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

// add appends an entry whose ID is not in the view.
func (t *memberTable) add(e Entry) {
	t.pos.put(e.ID, int32(len(t.recs)))
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
	if i != last {
		moved := t.recs[last]
		t.recs[i] = moved
		*t.pos.ptr(moved.id) = int32(i)
	}
	t.recs[last] = viewRec{}
	t.recs = t.recs[:last]
	if t.addrs != nil {
		t.addrs[i] = t.addrs[last]
		t.addrs[last] = ""
		t.addrs = t.addrs[:last]
	}
	t.pos.del(id)
	return id
}
