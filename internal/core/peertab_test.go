package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// checkIDTable compares the table with a reference map and checks the
// linear-probing invariant: every entry is reachable from its home slot
// without crossing an empty slot.
func checkIDTable(t *testing.T, step int, tab *idTable[int64], ref map[NodeID]int64) {
	t.Helper()
	if tab.len() != len(ref) {
		t.Fatalf("step %d: len = %d, reference %d", step, tab.len(), len(ref))
	}
	for id, want := range ref {
		if got, ok := tab.get(id); !ok || got != want {
			t.Fatalf("step %d: get(%d) = %d, %v; reference %d", step, id, got, ok, want)
		}
	}
	keys := tab.appendKeys(nil)
	sortNodeIDs(keys)
	var want []NodeID
	for id := range ref {
		want = append(want, id)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(keys) != len(want) || (len(keys) > 0 && !reflect.DeepEqual(keys, want)) {
		t.Fatalf("step %d: keys = %v, reference %v", step, keys, want)
	}
	mask := len(tab.slots) - 1
	for i, s := range tab.slots {
		if s.key == 0 {
			continue
		}
		for j := tab.home(s.key); j != i; j = (j + 1) & mask {
			if tab.slots[j].key == 0 {
				t.Fatalf("step %d: key %d at slot %d unreachable: slot %d on its probe path is empty", step, s.key-1, i, j)
			}
		}
	}
}

// TestIDTableMatchesMap drives the flat NodeID index and a Go map with
// the same random puts, deletes and lookups, through growth, shrinking
// occupancy and clears.
func TestIDTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab idTable[int64]
	ref := make(map[NodeID]int64)
	keyRange := 16
	for step := 0; step < 100000; step++ {
		if step%10000 == 0 {
			keyRange *= 2 // widen the key space so the table keeps growing
		}
		id := NodeID(rng.Intn(keyRange))
		switch r := rng.Intn(20); {
		case r == 0:
			id = NodeID(-2 - rng.Intn(1000)) // negative IDs other than None
		case r == 1:
			id = NodeID(rng.Int31()) // sparse large IDs
		}
		switch op := rng.Intn(10); {
		case op < 5:
			v := rng.Int63()
			tab.put(id, v)
			ref[id] = v
		case op < 8:
			_, want := ref[id]
			if got := tab.del(id); got != want {
				t.Fatalf("step %d: del(%d) = %v, reference %v", step, id, got, want)
			}
			delete(ref, id)
		default:
			want, wantOK := ref[id]
			if got, ok := tab.get(id); ok != wantOK || got != want {
				t.Fatalf("step %d: get(%d) = %d, %v; reference %d, %v", step, id, got, ok, want, wantOK)
			}
			if p := tab.ptr(id); (p != nil) != wantOK {
				t.Fatalf("step %d: ptr(%d) = %v, present %v", step, id, p, wantOK)
			} else if p != nil {
				*p++
				ref[id]++
			}
		}
		if step%1999 == 0 {
			checkIDTable(t, step, &tab, ref)
		}
		if step%40000 == 39999 {
			tab.clear()
			clear(ref)
			checkIDTable(t, step, &tab, ref)
		}
	}
	checkIDTable(t, -1, &tab, ref)
	if tab.has(None) {
		t.Fatal("has(None) = true")
	}
	if _, ok := tab.get(None); ok {
		t.Fatal("get(None) found an entry")
	}
}

func TestIDTablePutNonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("put(None) did not panic")
		}
	}()
	var tab idTable[bool]
	tab.put(None, true)
}

// TestIDTableDeleteWrapsPastEnd pins backward-shift deletion on a probe
// run that wraps from the last slot to the first: every later entry of
// the run moves back one slot, across the wrap, and stays findable.
func TestIDTableDeleteWrapsPastEnd(t *testing.T) {
	var tab idTable[int64]
	tab.put(0, 0)
	tab.del(0)
	if len(tab.slots) != idTableMinSlots {
		t.Fatalf("first table has %d slots, want %d", len(tab.slots), idTableMinSlots)
	}
	last := len(tab.slots) - 1
	// Three IDs hashing to the last slot and one hashing to slot 0.
	var atLast []NodeID
	atFirst := None
	for id := NodeID(1); len(atLast) < 3 || atFirst == None; id++ {
		switch tab.home(uint32(id) + 1) {
		case last:
			if len(atLast) < 3 {
				atLast = append(atLast, id)
			}
		case 0:
			if atFirst == None {
				atFirst = id
			}
		}
	}
	for _, id := range append(append([]NodeID(nil), atLast...), atFirst) {
		tab.put(id, int64(id))
	}
	if len(tab.slots) != idTableMinSlots {
		t.Fatalf("table grew to %d slots; the test needs the first size", len(tab.slots))
	}
	where := func() []int {
		return []int{tab.find(atLast[0]), tab.find(atLast[1]), tab.find(atLast[2]), tab.find(atFirst)}
	}
	if got, want := where(), []int{last, 0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("slots before delete = %v, want %v", got, want)
	}
	tab.del(atLast[0])
	if got, want := where(), []int{-1, last, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("slots after deleting the run's head = %v, want %v", got, want)
	}
	tab.del(atLast[2]) // slot 0: atFirst (home 0) shifts back into it
	if got, want := where(), []int{-1, last, -1, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("slots after deleting across the wrap = %v, want %v", got, want)
	}
	for _, id := range []NodeID{atLast[1], atFirst} {
		if v, ok := tab.get(id); !ok || v != int64(id) {
			t.Fatalf("get(%d) = %d, %v after the deletes", id, v, ok)
		}
	}
}

// sendLog is a dropEnv that records the target of every Gossip sent.
type sendLog struct {
	dropEnv
	gossipTo []NodeID
}

func (e *sendLog) Send(to NodeID, m Message) {
	if _, ok := m.(*Gossip); ok {
		e.gossipTo = append(e.gossipTo, to)
	}
}

// TestNeighborListOrder checks the neighbor list against the semantics of
// the append-and-splice order slice it replaced: links in creation order,
// removal closing the gap, and the gossip round-robin cursor stepping
// back over a removal before it so no neighbor is skipped.
func TestNeighborListOrder(t *testing.T) {
	env := &sendLog{}
	n := New(1, DefaultConfig(), env)
	for _, id := range []NodeID{10, 11, 12, 13} {
		n.AddNeighborDirect(Entry{ID: id}, Random, time.Millisecond)
	}
	n.gossipRound()
	n.gossipRound()
	n.removeNeighbor(10, false)
	n.gossipRound()
	n.gossipRound()
	n.gossipRound()
	if want := []NodeID{10, 11, 12, 13, 11}; !reflect.DeepEqual(env.gossipTo, want) {
		t.Fatalf("gossip targets = %v, want %v", env.gossipTo, want)
	}

	rng := rand.New(rand.NewSource(7))
	env = &sendLog{}
	n = New(1, DefaultConfig(), env)
	var model []NodeID // link order under append-and-splice
	cursor := 0        // gossip cursor, stepped back over removals before it
	for step := 0; step < 5000; step++ {
		switch r := rng.Intn(3); {
		case r == 0 && len(model) < 11:
			id := NodeID(2 + rng.Intn(30))
			if !containsID(model, id) {
				n.AddNeighborDirect(Entry{ID: id}, Random, time.Millisecond)
				model = append(model, id)
			}
		case r == 1 && len(model) > 0:
			i := rng.Intn(len(model))
			n.removeNeighbor(model[i], false)
			model = append(model[:i], model[i+1:]...)
			if cursor > i {
				cursor--
			}
		case len(model) > 0:
			if cursor >= len(model) {
				cursor = 0
			}
			want := model[cursor]
			cursor = (cursor + 1) % len(model)
			env.gossipTo = env.gossipTo[:0]
			n.gossipRound()
			if len(env.gossipTo) != 1 || env.gossipTo[0] != want {
				t.Fatalf("step %d: gossip went to %v, want %d", step, env.gossipTo, want)
			}
		}
		if len(model) != n.Degree() || (len(model) > 0 && !reflect.DeepEqual(n.neighbors.ids, model)) {
			t.Fatalf("step %d: neighbor order %v, want %v", step, n.neighbors.ids, model)
		}
		for i, nb := range n.neighbors.nbs {
			if nb.entry.ID != model[i] {
				t.Fatalf("step %d: record %d is %d, want %d", step, i, nb.entry.ID, model[i])
			}
		}
	}
}

// TestLearnEntryAllocFree is the zero-allocation gate of the membership
// merge, the hottest path of overlay set-up: merging an entry already in
// the view, and merging a new entry into a full view (which evicts one),
// allocate nothing.
func TestLearnEntryAllocFree(t *testing.T) {
	const runs = 1000
	cfg := DefaultConfig()
	n := New(1, cfg, &dropEnv{})
	lm := NewLandmarkVec(10, 20, 30)
	for i := 0; i < cfg.MemberViewSize; i++ {
		n.learnEntry(Entry{ID: NodeID(100 + i), Landmarks: lm})
	}
	if got := n.MemberCount(); got != cfg.MemberViewSize {
		t.Fatalf("view holds %d entries, want a full view of %d", got, cfg.MemberViewSize)
	}
	known := Entry{ID: 100, Landmarks: lm}
	if allocs := testing.AllocsPerRun(runs, func() { n.learnEntry(known) }); allocs != 0 {
		t.Errorf("merging a known entry allocates %v/op, want 0", allocs)
	}
	next := NodeID(100000)
	allocs := testing.AllocsPerRun(runs, func() {
		n.learnEntry(Entry{ID: next, Landmarks: lm})
		next++
	})
	if allocs != 0 {
		t.Errorf("merging a new entry into a full view allocates %v/op, want 0", allocs)
	}
	if got := n.MemberCount(); got != cfg.MemberViewSize {
		t.Fatalf("view holds %d entries after the evicting merges, want %d", got, cfg.MemberViewSize)
	}
	if !n.members.has(next - 1) {
		t.Fatalf("the last merged entry is not in the view")
	}
}

// TestFindPingAcrossNonceWrap checks the nonce search of the outstanding
// ping FIFO, including a window that wraps past the largest nonce.
func TestFindPingAcrossNonceWrap(t *testing.T) {
	n := New(1, DefaultConfig(), &dropEnv{})
	nonces := []uint32{math.MaxUint32 - 1, math.MaxUint32, 0, 1, 5}
	for _, nonce := range nonces {
		n.pings = append(n.pings, pingCtx{nonce: nonce, target: 2})
	}
	for i, nonce := range nonces {
		if got := n.findPing(nonce); got != i {
			t.Errorf("findPing(%d) = %d, want %d", nonce, got, i)
		}
	}
	for _, nonce := range []uint32{math.MaxUint32 - 2, 2, 4, 6} {
		if got := n.findPing(nonce); got != -1 {
			t.Errorf("findPing(%d) = %d for a nonce not outstanding", nonce, got)
		}
	}
}

// TestPongWithForeignEntryIgnored checks that a pong whose entry names
// another node than its sender (here None, which the peer tables never
// hold) leaves the ping outstanding and starts no link.
func TestPongWithForeignEntryIgnored(t *testing.T) {
	env := &sendLog{}
	n := New(1, DefaultConfig(), env)
	n.Start()
	n.sendPing(2, pingCtx{target: 2, purpose: pingProbeAddRandom})
	for _, from := range []Entry{{ID: None}, {ID: 3}} {
		n.HandleMessage(2, &Pong{From: from, Nonce: n.pingNonce})
		if len(n.pings) != 1 || n.pendingAdd.len() != 0 {
			t.Fatalf("pong from 2 carrying %+v: %d pings outstanding, %d adds pending; want 1 and 0", from, len(n.pings), n.pendingAdd.len())
		}
	}
	n.HandleMessage(2, &Pong{From: Entry{ID: 2}, Nonce: n.pingNonce})
	if len(n.pings) != 0 || !n.pendingAdd.has(2) {
		t.Fatalf("matching pong: %d pings outstanding, add to 2 pending %v; want 0 and true", len(n.pings), n.pendingAdd.has(2))
	}
}

// TestLatePongCountsAsLost checks that a pong answering a ping older than
// pingTimeout is ignored even before expirePings has run: the ping stays
// outstanding for expirePings to judge, and no RTT past the cache's
// 32-bit slots is recorded.
func TestLatePongCountsAsLost(t *testing.T) {
	env := &sendLog{}
	n := New(1, DefaultConfig(), env)
	n.Start()
	n.learnEntry(Entry{ID: 2})
	n.sendPing(2, pingCtx{target: 2, purpose: pingProbeAddRandom})
	env.now = pingTimeout + time.Nanosecond
	n.HandleMessage(2, &Pong{From: Entry{ID: 2}, Nonce: n.pingNonce})
	if len(n.pings) != 1 || n.rtt.has(2) || n.lastPong.has(2) || n.pendingAdd.len() != 0 {
		t.Fatalf("late pong: %d pings outstanding, rtt cached %v, pong time kept %v, %d adds pending; want 1, false, false, 0",
			len(n.pings), n.rtt.has(2), n.lastPong.has(2), n.pendingAdd.len())
	}
	n.expirePings()
	if len(n.pings) != 0 || n.members.has(2) {
		t.Fatalf("expirePings kept the lost ping (%d outstanding) or its target (%v)", len(n.pings), n.members.has(2))
	}

	// At exactly pingTimeout the pong still counts.
	n.learnEntry(Entry{ID: 3})
	n.sendPing(3, pingCtx{target: 3, purpose: pingMeasureLink})
	env.now += pingTimeout
	n.HandleMessage(3, &Pong{From: Entry{ID: 3}, Nonce: n.pingNonce})
	if rtt, ok := n.measuredRTT(3); !ok || rtt != pingTimeout {
		t.Fatalf("pong at the timeout: cached RTT %v, %v; want %v", rtt, ok, pingTimeout)
	}
}

// TestMaintainTickAllocFree checks that a maintenance tick on an idle
// node allocates nothing: the tick re-arms itself with the callback bound
// once in New, not with a fresh method value.
func TestMaintainTickAllocFree(t *testing.T) {
	n := New(1, DefaultConfig(), &dropEnv{})
	n.Start()
	if allocs := testing.AllocsPerRun(100, n.maintainTick); allocs != 0 {
		t.Fatalf("maintenance tick allocates %v/op, want 0", allocs)
	}
}

// TestRecordSizes pins the sizes the per-peer tables are laid out for:
// an Entry shares its landmark vector, and a view record drops the
// address into its own column.
func TestRecordSizes(t *testing.T) {
	if s := unsafe.Sizeof(Entry{}); s != 32 {
		t.Errorf("Entry is %d bytes, want 32", s)
	}
	if s := unsafe.Sizeof(viewRec{}); s != 16 {
		t.Errorf("view record is %d bytes, want 16", s)
	}
}
