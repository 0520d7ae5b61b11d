package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
	"unsafe"

	"gocast/internal/store"
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

// checkMemberTable compares the view with a reference model of its dense
// order and checks the compact index: it names every record exactly once,
// stays at or below 3/8 load, and every record is reachable from its home
// slot without crossing an empty slot.
func checkMemberTable(t *testing.T, step int, tab *memberTable, model []NodeID) {
	t.Helper()
	if tab.len() != len(model) {
		t.Fatalf("step %d: len = %d, reference %d", step, tab.len(), len(model))
	}
	for i, id := range model {
		if tab.recs[i].id != id {
			t.Fatalf("step %d: record %d is %d, reference %d", step, i, tab.recs[i].id, id)
		}
		if got := tab.index(id); got != i {
			t.Fatalf("step %d: index(%d) = %d, reference %d", step, id, got, i)
		}
	}
	if len(model) > 0 && len(model)*8 > len(tab.slots)*3 {
		t.Fatalf("step %d: %d entries in %d slots, above 3/8 load", step, len(model), len(tab.slots))
	}
	named := make([]bool, len(model))
	mask := len(tab.slots) - 1
	for s, v := range tab.slots {
		if v == 0 {
			continue
		}
		i := int(v) - 1
		if i >= len(model) || named[i] {
			t.Fatalf("step %d: slot %d names dense index %d, out of range or named twice", step, s, i)
		}
		named[i] = true
		for j := tab.home(model[i]); j != s; j = (j + 1) & mask {
			if tab.slots[j] == 0 {
				t.Fatalf("step %d: ID %d at slot %d unreachable: slot %d on its probe path is empty", step, model[i], s, j)
			}
		}
	}
	for i, ok := range named {
		if !ok {
			t.Fatalf("step %d: no slot names dense index %d", step, i)
		}
	}
}

// TestMemberTableMatchesMap drives the view's dense records and compact
// index and a Go map with the same random adds, swap-with-last removals
// (the last record included), lookups and growth, from a table sized for
// a full view and from a zero table that grows as it fills.
func TestMemberTableMatchesMap(t *testing.T) {
	for _, reserved := range []int{DefaultConfig().MemberViewSize, 0} {
		rng := rand.New(rand.NewSource(int64(1 + reserved)))
		var tab memberTable
		if reserved > 0 {
			tab.reserve(reserved)
		}
		var model []NodeID
		ref := make(map[NodeID]uint32)
		limit := 96
		for step := 0; step < 100000; step++ {
			if reserved == 0 && step%20000 == 0 {
				limit *= 2 // let the zero table keep growing
			}
			id := NodeID(rng.Intn(4 * limit))
			switch r := rng.Intn(20); {
			case r == 0:
				id = NodeID(-2 - rng.Intn(1000)) // negative IDs other than None
			case r == 1:
				id = NodeID(rng.Int31()) // sparse large IDs
			case r == 2:
				id = None
			}
			switch op := rng.Intn(10); {
			case op < 4:
				if _, ok := ref[id]; ok || id == None || len(model) >= limit {
					break
				}
				inc := rng.Uint32()
				tab.add(Entry{ID: id, Inc: inc})
				ref[id] = inc
				model = append(model, id)
			case op < 7 && len(model) > 0:
				i := rng.Intn(len(model))
				if rng.Intn(4) == 0 {
					i = len(model) - 1
				}
				want := model[i]
				if got := tab.removeAt(i); got != want {
					t.Fatalf("step %d: removeAt(%d) = %d, reference %d", step, i, got, want)
				}
				delete(ref, want)
				model[i] = model[len(model)-1]
				model = model[:len(model)-1]
			default:
				inc, want := ref[id]
				if got := tab.has(id); got != want {
					t.Fatalf("step %d: has(%d) = %v, reference %v", step, id, got, want)
				}
				if e, ok := tab.get(id); ok != want || (ok && (e.ID != id || e.Inc != inc)) {
					t.Fatalf("step %d: get(%d) = %+v, %v; reference inc %d, %v", step, id, e, ok, inc, want)
				}
				if i := tab.index(id); (i >= 0) != want || (want && tab.recs[i].id != id) {
					t.Fatalf("step %d: index(%d) = %d, present %v", step, id, i, want)
				}
			}
			if step%997 == 0 {
				checkMemberTable(t, step, &tab, model)
			}
		}
		checkMemberTable(t, -1, &tab, model)
		if tab.has(None) || tab.index(None) != -1 {
			t.Fatal("None found in the view")
		}
		if reserved > 0 && len(tab.slots) != indexSlotsFor(reserved) {
			t.Fatalf("index grew to %d slots; a view within its reserved %d entries keeps %d", len(tab.slots), reserved, indexSlotsFor(reserved))
		}
	}
}

// TestMemberTableIndexBytes pins the compact index's size for a default
// view, and that a view the uint16 slots cannot name, or a None entry,
// panics instead of being clamped or stored.
func TestMemberTableIndexBytes(t *testing.T) {
	var tab memberTable
	tab.reserve(DefaultConfig().MemberViewSize)
	if got := tab.indexBytes(); got != 512 {
		t.Errorf("a %d-entry view's index takes %d bytes, want 512", DefaultConfig().MemberViewSize, got)
	}
	for name, f := range map[string]func(){
		"reserve past the slot width": func() { new(memberTable).reserve(maxViewEntries + 1) },
		"add(None)":                   func() { tab.add(Entry{ID: None}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
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

// recycleEnv is a dropEnv with the ControlPool capability: Reuse pops
// the structs the test stocked, and every send is recorded.
type recycleEnv struct {
	dropEnv
	free   [NumMsgKinds][]Message
	reused [NumMsgKinds]int
	sent   []Message
}

func (e *recycleEnv) Reuse(k MsgKind) Message {
	e.reused[k]++
	if n := len(e.free[k]) - 1; n >= 0 {
		m := e.free[k][n]
		e.free[k] = e.free[k][:n]
		return m
	}
	return nil
}

func (e *recycleEnv) Send(to NodeID, m Message) {
	e.sent = append(e.sent, m)
	e.dropEnv.Send(to, m)
}
func (e *recycleEnv) SendDatagram(to NodeID, m Message) { e.Send(to, m) }

// TestControlMessagesReuseStructs checks the ControlPool seam: every
// control message goes through Reuse, a reused struct is sent with every
// field overwritten (a SyncRequest keeping its Ranges capacity), and a
// tree advert to several neighbors is one struct per send.
func TestControlMessagesReuseStructs(t *testing.T) {
	env := &recycleEnv{}
	n := New(1, DefaultConfig(), env)
	n.Start()
	for _, peer := range []NodeID{2, 3, 4} {
		n.AddNeighborDirect(Entry{ID: peer}, Random, time.Millisecond)
	}
	n.Multicast([]byte("x")) // one source for the sync digest
	dirtyPing := &Ping{From: Entry{ID: 77, Inc: 9}, Nonce: 5}
	dirtyAdv := &TreeAdvert{Root: 77, Epoch: 9, Wave: 9, Dist: 9}
	dirtySync := &SyncRequest{Ranges: make([]store.SourceRange, 3, 8)}
	dirtySync.Ranges[0] = store.SourceRange{Source: 77, Low: 9, High: 9}
	env.free[KindPing] = []Message{dirtyPing}
	env.free[KindTreeAdvert] = []Message{dirtyAdv}
	env.free[KindSyncRequest] = []Message{dirtySync}
	env.sent = env.sent[:0]

	n.sendPing(2, pingCtx{target: 2, purpose: pingMeasureLink})
	if len(env.sent) != 1 || env.sent[0] != Message(dirtyPing) {
		t.Fatalf("ping did not reuse the stocked struct: sent %v", env.sent)
	}
	if want := (Ping{From: n.selfEntry(), Nonce: n.pingNonce}); *dirtyPing != want {
		t.Fatalf("reused ping = %+v, want %+v", *dirtyPing, want)
	}

	env.sent = env.sent[:0]
	n.BecomeRoot()
	n.heartbeatTick()
	var adverts []*TreeAdvert
	for _, m := range env.sent {
		if a, ok := m.(*TreeAdvert); ok {
			adverts = append(adverts, a)
		}
	}
	if len(adverts) != 3 || adverts[0] != dirtyAdv || adverts[1] == adverts[0] || adverts[2] == adverts[1] {
		t.Fatalf("tree adverts to three neighbors: %v, want three structs, the first the reused one", adverts)
	}
	for _, a := range adverts {
		if want := (TreeAdvert{Root: 1, Epoch: n.treeEpoch, Wave: n.treeWave, Dist: 0}); *a != want {
			t.Fatalf("tree advert = %+v, want %+v", *a, want)
		}
	}

	env.sent = env.sent[:0]
	n.requestSync(2, true)
	if len(env.sent) != 1 || env.sent[0] != Message(dirtySync) {
		t.Fatalf("sync request did not reuse the stocked struct: sent %v", env.sent)
	}
	if want := n.store.Digest(); cap(dirtySync.Ranges) != 8 || !reflect.DeepEqual(dirtySync.Ranges, want) {
		t.Fatalf("reused sync request ranges = %v (cap %d), want %v in the kept capacity 8", dirtySync.Ranges, cap(dirtySync.Ranges), want)
	}

	// The remaining kinds: a pong, an add request and reply, a rebalance
	// and its reply, a parent change and a drop.
	n.tryRebalanceRandom()
	n.HandleMessage(2, &Ping{From: Entry{ID: 2}, Nonce: 1})
	n.HandleMessage(5, &AddRequest{From: Entry{ID: 5}, LinkKind: Random})
	n.HandleMessage(3, &Rebalance{Target: Entry{ID: 6}})
	n.HandleMessage(6, &AddReply{From: Entry{ID: 6}, LinkKind: Random, Accepted: true})
	n.HandleMessage(4, &Rebalance{Target: Entry{ID: 1}})
	n.setParent(4)
	n.dropLink(2)
	var sentOf [NumMsgKinds]int
	for _, m := range env.sent {
		sentOf[m.Kind()]++
	}
	for _, k := range []MsgKind{KindPing, KindPong, KindAddRequest, KindAddReply, KindDrop,
		KindRebalance, KindRebalanceReply, KindTreeAdvert, KindTreeParent, KindSyncRequest} {
		if env.reused[k] == 0 {
			t.Errorf("kind %d never went through Reuse", k)
		}
	}
	for k, c := range sentOf {
		if c > 0 && env.reused[k] < c {
			switch MsgKind(k) {
			case KindPing, KindPong, KindAddRequest, KindAddReply, KindDrop,
				KindRebalance, KindRebalanceReply, KindTreeAdvert, KindTreeParent, KindSyncRequest:
				t.Errorf("kind %d: %d sent, only %d through Reuse", k, c, env.reused[k])
			}
		}
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
