package core

// memberTable is the partial view's backing store: a dense entry slice
// for scan- and sample-heavy access plus a flat position index for O(1)
// lookup. Sampling walks the dense slice directly and removal is a swap
// with the last element. Slice order is deterministic for a given
// operation history but is NOT insertion order once anything has been
// removed.
type memberTable struct {
	entries []Entry
	pos     idTable[int32]
}

func (t *memberTable) len() int { return len(t.entries) }

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
		return t.entries[i], true
	}
	return Entry{}, false
}

// has reports whether id is in the view without copying the entry.
func (t *memberTable) has(id NodeID) bool { return t.pos.has(id) }

// at returns the entry at dense index i (0 <= i < len).
func (t *memberTable) at(i int) Entry { return t.entries[i] }

// add appends an entry whose ID is not in the view.
func (t *memberTable) add(e Entry) {
	t.pos.put(e.ID, int32(len(t.entries)))
	t.entries = append(t.entries, e)
}

// remove deletes id by swapping the last entry into its slot. It returns
// the dense index the removal happened at (-1 if id was absent) so
// callers can fix up any cursor into the slice.
func (t *memberTable) remove(id NodeID) int {
	i := t.index(id)
	if i < 0 {
		return -1
	}
	last := len(t.entries) - 1
	if i != last {
		moved := t.entries[last]
		t.entries[i] = moved
		*t.pos.ptr(moved.ID) = int32(i)
	}
	t.entries[last] = Entry{}
	t.entries = t.entries[:last]
	t.pos.del(id)
	return i
}
