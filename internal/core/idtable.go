package core

import "unsafe"

// idTable is a flat hash map keyed by NodeID: one slot array, open
// addressing with linear probing, and backward-shift deletion (no
// tombstones). The per-peer tables use it instead of map[NodeID]V because
// they are consulted for every membership entry a node merges: a Go map
// lookup walks the map's directory, table and group words, each a
// dependent load, while here a lookup is one multiply, one shift and,
// almost always, one cache line holding both the key and the value.
//
// The zero value is an empty table ready for use. None is never a key:
// put(None) panics, and lookups of None find nothing. Slot order is a
// function of the operation history, not of insertion order, so a loop
// over the slots must not let that order leak into protocol behaviour:
// sort what it collects, or only aggregate.
type idTable[V any] struct {
	slots []idSlot[V]
	count int
	shift uint8 // 32 - log2(len(slots))
}

// idSlot holds one entry. key is the NodeID plus one, so the zero slot is
// empty and None (-1) maps to the empty key.
type idSlot[V any] struct {
	key uint32
	val V
}

const idTableMinSlots = 8

func (t *idTable[V]) len() int { return t.count }

// bytes returns the size of the slot array.
func (t *idTable[V]) bytes() int { return len(t.slots) * int(unsafe.Sizeof(idSlot[V]{})) }

// home is the slot a key hashes to (Fibonacci hashing: the top bits of
// the product, so consecutive IDs spread over the whole table).
func (t *idTable[V]) home(key uint32) int { return int((key * 0x9E3779B9) >> t.shift) }

// find returns the slot index holding id, or -1.
func (t *idTable[V]) find(id NodeID) int {
	if t.count == 0 {
		return -1
	}
	key := uint32(id) + 1
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		k := t.slots[i].key
		if k == 0 {
			return -1
		}
		if k == key {
			return i
		}
	}
}

// get returns the value stored for id.
func (t *idTable[V]) get(id NodeID) (V, bool) {
	if i := t.find(id); i >= 0 {
		return t.slots[i].val, true
	}
	var zero V
	return zero, false
}

// has reports whether id is present.
func (t *idTable[V]) has(id NodeID) bool { return t.find(id) >= 0 }

// ptr returns a pointer to id's value for in-place update, nil if absent.
// The pointer is invalidated by any put or del.
func (t *idTable[V]) ptr(id NodeID) *V {
	if i := t.find(id); i >= 0 {
		return &t.slots[i].val
	}
	return nil
}

// put inserts or replaces the value for id.
func (t *idTable[V]) put(id NodeID, v V) {
	if id == None {
		panic("core: idTable.put(None)")
	}
	if (t.count+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	key := uint32(id) + 1
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			t.slots[i].val = v
			return
		case 0:
			t.slots[i] = idSlot[V]{key: key, val: v}
			t.count++
			return
		}
	}
}

// grow doubles the slot array (or allocates the first one) and reinserts
// every entry.
func (t *idTable[V]) grow() {
	n := 2 * len(t.slots)
	if n < idTableMinSlots {
		n = idTableMinSlots
	}
	old := t.slots
	t.slots = make([]idSlot[V], n)
	t.shift = 32
	for s := n; s > 1; s >>= 1 {
		t.shift--
	}
	mask := n - 1
	for j := range old {
		if old[j].key == 0 {
			continue
		}
		i := t.home(old[j].key)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = old[j]
	}
}

// del removes id, reporting whether it was present. Later entries of the
// probe run shift back into the hole, so lookups never need tombstones.
func (t *idTable[V]) del(id NodeID) bool {
	i := t.find(id)
	if i < 0 {
		return false
	}
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i only if i lies on its
		// probe path, i.e. its home is no closer to j than i is.
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = idSlot[V]{}
	t.count--
	return true
}

// clear removes every entry, keeping the slot array.
func (t *idTable[V]) clear() {
	clear(t.slots)
	t.count = 0
}

// each calls f for every entry in slot order, with a pointer valid until
// the next put or del; f must not put or del. Callers sort what they
// collect or only aggregate.
func (t *idTable[V]) each(f func(id NodeID, v *V)) {
	if t.count == 0 {
		return
	}
	for i := range t.slots {
		if k := t.slots[i].key; k != 0 {
			f(NodeID(k-1), &t.slots[i].val)
		}
	}
}

// appendKeys appends every key to dst in slot order; callers sort the
// result or use it only as a set.
func (t *idTable[V]) appendKeys(dst []NodeID) []NodeID {
	if t.count == 0 {
		return dst
	}
	for i := range t.slots {
		if k := t.slots[i].key; k != 0 {
			dst = append(dst, NodeID(k-1))
		}
	}
	return dst
}
