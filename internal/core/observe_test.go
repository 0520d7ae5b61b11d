package core

import (
	"reflect"
	"testing"
	"time"

	"gocast/internal/dtrace"
)

// recorder is an Observer that keeps every record.
type recorder struct{ spans []dtrace.Span }

func (r *recorder) Observe(s dtrace.Span) { r.spans = append(r.spans, s) }

// of returns the records of the given kinds, in emission order.
func (r *recorder) of(kinds ...dtrace.Kind) []dtrace.Span {
	var out []dtrace.Span
	for _, s := range r.spans {
		for _, k := range kinds {
			if s.Kind == k {
				out = append(out, s)
			}
		}
	}
	return out
}

// dropEnv is a substrate that allocates nothing itself: timers never fire
// and sends are dropped, pooled Multicasts recycled the way netsim does.
type dropEnv struct {
	now    time.Duration
	mcFree []*Multicast
}

func (e *dropEnv) Now() time.Duration                { return e.now }
func (e *dropEnv) Rand(int) int                      { return 0 }
func (e *dropEnv) Learn(Entry)                       {}
func (e *dropEnv) After(time.Duration, func()) Timer { return MakeTimer(e, 0) }
func (e *dropEnv) CancelTimer(uint64) bool           { return true }
func (e *dropEnv) SendDatagram(to NodeID, m Message) { e.Send(to, m) }
func (e *dropEnv) GetGossip() *Gossip                { return &Gossip{} }
func (e *dropEnv) GetPullRequest() *PullRequest      { return &PullRequest{} }
func (e *dropEnv) Send(_ NodeID, m Message) {
	if mc, ok := m.(*Multicast); ok {
		*mc = Multicast{}
		e.mcFree = append(e.mcFree, mc)
	}
}
func (e *dropEnv) GetMulticast() *Multicast {
	if k := len(e.mcFree) - 1; k >= 0 {
		mc := e.mcFree[k]
		e.mcFree = e.mcFree[:k]
		return mc
	}
	return &Multicast{}
}

// kindCounter is the shape of a live observer: per-kind tallies, and
// sampled records into a span ring.
type kindCounter struct {
	counts [dtrace.KindStoreGC + 1]int
	ring   *dtrace.Buffer
}

func (k *kindCounter) Observe(s dtrace.Span) {
	k.counts[s.Kind]++
	if s.Sampled {
		k.ring.Record(s)
	}
}

// TestObservedTreeForwardAllocFree is the zero-allocation gate of the
// telemetry seam: with an Observer installed, receiving a tree push from
// a scripted peer and forwarding it to two children allocates nothing,
// and with TraceSampleEvery = 0 no record reaches the span ring.
func TestObservedTreeForwardAllocFree(t *testing.T) {
	const runs = 1000
	env := &dropEnv{}
	n := New(1, DefaultConfig(), env)
	for _, peer := range []NodeID{100, 101, 102} {
		n.AddNeighborDirect(Entry{ID: peer}, Nearby, 20*time.Millisecond)
	}
	n.BecomeRoot()
	n.Start()
	n.HandleMessage(101, &TreeParent{On: true})
	n.HandleMessage(102, &TreeParent{On: true})
	obs := &kindCounter{ring: dtrace.NewBuffer(16)}
	n.SetObserver(obs)
	// Every delivery takes a fresh msgState; stock the free list so the
	// measurement sees only the receive and forward path.
	for i := 0; i < runs+1; i++ {
		n.putMsgState(&msgState{})
	}
	payload := make([]byte, 64)
	msgs := make([]*Multicast, runs+1)
	for i := range msgs {
		msgs[i] = &Multicast{ID: MessageID{Source: 7, Seq: uint32(i)}, Payload: payload, ViaTree: true}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		n.HandleMessage(100, msgs[next])
		next++
	})
	if allocs != 0 {
		t.Errorf("observed tree receive+forward allocates %v/op, want 0", allocs)
	}
	if got := obs.counts[dtrace.KindTreeDeliver]; got != runs+1 {
		t.Errorf("tree-deliver records = %d, want %d", got, runs+1)
	}
	if got := obs.counts[dtrace.KindTreeSend]; got != 2*(runs+1) {
		t.Errorf("tree-send records = %d, want %d", got, 2*(runs+1))
	}
	if got := obs.ring.Len(); got != 0 {
		t.Errorf("%d records reached the span ring with sampling off", got)
	}
}

// parentOnly is a recorder that asks for parent records only.
type parentOnly struct{ recorder }

func (*parentOnly) Wants(k dtrace.Kind) bool { return k == dtrace.KindParent }

// TestKindFilterLimitsRecords checks the KindFilter capability: the same
// link, gossip round and parent change reach a plain observer as three
// records and a parent-only observer as the parent record alone.
func TestKindFilterLimitsRecords(t *testing.T) {
	all, filtered := &recorder{}, &parentOnly{}
	for _, o := range []Observer{all, filtered} {
		n := New(1, DefaultConfig(), &dropEnv{})
		n.SetObserver(o)
		n.Start()
		n.AddNeighborDirect(Entry{ID: 2}, Random, time.Millisecond)
		n.gossipTick()
		n.setParent(2)
	}
	kinds := func(r *recorder) []dtrace.Kind {
		var out []dtrace.Kind
		for _, s := range r.spans {
			out = append(out, s.Kind)
		}
		return out
	}
	if got, want := kinds(all), []dtrace.Kind{dtrace.KindLinkUp, dtrace.KindGossipRound, dtrace.KindParent}; !reflect.DeepEqual(got, want) {
		t.Errorf("plain observer got %v, want %v", got, want)
	}
	if got, want := kinds(&filtered.recorder), []dtrace.Kind{dtrace.KindParent}; !reflect.DeepEqual(got, want) {
		t.Errorf("parent-only observer got %v, want %v", got, want)
	}
}

// only returns the single record of kind k, failing unless exactly one
// was emitted.
func only(t *testing.T, r *recorder, k dtrace.Kind) dtrace.Span {
	t.Helper()
	got := r.of(k)
	if len(got) != 1 {
		t.Fatalf("%d %s records, want exactly 1: %v", len(got), k, r.spans)
	}
	return got[0]
}

// TestOneRecordPerFact pins that every protocol fact reaches the observer
// as exactly one record of its kind, carrying the fact's measurements.
func TestOneRecordPerFact(t *testing.T) {
	deliveries := []dtrace.Kind{dtrace.KindTreeDeliver, dtrace.KindPullDeliver, dtrace.KindSyncDeliver, dtrace.KindReassembly}

	t.Run("tree delivery", func(t *testing.T) {
		f, a, b := pair(t, DefaultConfig())
		a.BecomeRoot()
		f.run(2 * time.Second)
		rec := &recorder{}
		b.SetObserver(rec)
		id := a.Multicast([]byte("tree"))
		f.run(time.Second)
		if got := rec.of(deliveries...); len(got) != 1 {
			t.Fatalf("%d delivery records, want 1: %v", len(got), got)
		}
		s := only(t, rec, dtrace.KindTreeDeliver)
		if s.Src != int32(id.Source) || s.Seq != id.Seq || s.Node != 2 || s.From != 1 || s.Age <= 0 || s.Aux2 != 0 || s.Sampled {
			t.Fatalf("tree-deliver record = %+v", s)
		}
	})

	t.Run("pull delivery", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.EnableTree = false
		cfg.SyncInterval = -1
		f, a, b := pair(t, cfg)
		rec := &recorder{}
		b.SetObserver(rec)
		a.Multicast([]byte("pulled"))
		f.run(5 * time.Second)
		if got := rec.of(deliveries...); len(got) != 1 {
			t.Fatalf("%d delivery records, want 1: %v", len(got), got)
		}
		s := only(t, rec, dtrace.KindPullDeliver)
		pull := only(t, rec, dtrace.KindPull)
		if s.From != 1 || s.Start != pull.End || s.End-s.Start != 20*time.Millisecond || s.Aux2 != int64(pull.End) {
			t.Fatalf("pull-deliver record = %+v after pull %+v, want a 20ms RTT", s, pull)
		}
	})

	t.Run("sync delivery", func(t *testing.T) {
		f := newFixture(1)
		n := f.addNode(1, DefaultConfig())
		n.Start()
		rec := &recorder{}
		n.SetObserver(rec)
		id := MessageID{Source: 9, Seq: 4}
		n.HandleMessage(5, &SyncReply{Items: []SyncItem{{ID: id, Age: time.Second, Payload: []byte("synced")}}})
		if got := rec.of(deliveries...); len(got) != 1 {
			t.Fatalf("%d delivery records, want 1: %v", len(got), got)
		}
		if s := only(t, rec, dtrace.KindSyncDeliver); s.Src != 9 || s.Seq != 4 || s.From != 5 || s.Age < time.Second {
			t.Fatalf("sync-deliver record = %+v", s)
		}
	})

	t.Run("coopcast reassembly", func(t *testing.T) {
		f, n, symbols := scriptedNode(t, coopcastConfig())
		rec := &recorder{}
		n.SetObserver(rec)
		f.run(10 * time.Millisecond)
		for i := 0; i < scriptK; i++ {
			serve(n, 100, symbols, i)
		}
		if got := rec.of(deliveries...); len(got) != 1 {
			t.Fatalf("%d delivery records, want 1: %v", len(got), got)
		}
		s := only(t, rec, dtrace.KindReassembly)
		if s.Src != 99 || s.Seq != 1 || s.Aux != scriptK || s.Start != 10*time.Millisecond || s.End != s.Start {
			t.Fatalf("reassembly record = %+v", s)
		}
	})

	t.Run("link up and down", func(t *testing.T) {
		f := newFixture(1)
		a := f.addNode(1, DefaultConfig())
		rec := &recorder{}
		a.SetObserver(rec)
		a.AddNeighborDirect(Entry{ID: 5}, Nearby, 10*time.Millisecond)
		up := only(t, rec, dtrace.KindLinkUp)
		if up.From != 5 || LinkKind(up.Aux) != Nearby || time.Duration(up.Aux2) != 10*time.Millisecond {
			t.Fatalf("link-up record = %+v", up)
		}
		a.dropLink(5)
		down := only(t, rec, dtrace.KindLinkDown)
		if down.From != 5 || LinkKind(down.Aux) != Nearby || time.Duration(down.Aux2) != 10*time.Millisecond {
			t.Fatalf("link-down record = %+v", down)
		}
	})

	t.Run("re-parent", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.MaintainPeriod = time.Hour
		f := newFixture(1)
		f.lat = func(a, b NodeID) time.Duration { return 30 * time.Millisecond }
		var ns []*Node
		for i := NodeID(1); i <= 4; i++ {
			ns = append(ns, f.addNode(i, cfg))
		}
		f.link(1, 2, Nearby)
		f.link(1, 3, Nearby)
		f.link(2, 4, Nearby)
		f.link(3, 4, Nearby)
		for _, n := range ns {
			n.Start()
		}
		ns[0].BecomeRoot()
		f.run(5 * time.Second)
		n4 := ns[3]
		old := n4.Parent()
		rec := &recorder{}
		n4.SetObserver(rec)
		// Losing the parent link detaches the node and re-attaches it from
		// a cached advert at once: two parent records, the second carrying
		// the (zero) repair time.
		n4.removeNeighbor(old, true)
		got := rec.of(dtrace.KindParent)
		if len(got) != 2 {
			t.Fatalf("%d parent records, want detach + re-attach: %v", len(got), got)
		}
		if got[0].From != int32(None) || got[0].Aux != int64(old) || got[0].Aux2 != 0 {
			t.Fatalf("detach record = %+v", got[0])
		}
		if p := n4.Parent(); got[1].From != int32(p) || got[1].Aux != int64(None) || got[1].Aux2 != 1 || got[1].End != got[1].Start {
			t.Fatalf("re-attach record = %+v, parent now %d", got[1], p)
		}
		if n := len(rec.of(dtrace.KindRoot)); n != 0 {
			t.Fatalf("%d root records for a re-parent", n)
		}
	})

	t.Run("root takeover", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.MaintainPeriod = 100 * time.Millisecond
		cfg.RootTimeout = 3 * time.Second
		f, a, b := pair(t, cfg)
		a.BecomeRoot()
		f.run(5 * time.Second)
		if b.Parent() != 1 {
			t.Fatalf("setup failed: b not attached to a")
		}
		rec := &recorder{}
		b.SetObserver(rec)
		// The root goes silent but the link stays up: b times out and takes
		// over without ever losing its parent link.
		f.down[1] = true
		a.Stop()
		f.run(4500 * time.Millisecond)
		if b.Root() != 2 {
			t.Fatalf("b root = %d, want self-promotion", b.Root())
		}
		s := only(t, rec, dtrace.KindRoot)
		if s.From != 2 || s.Aux != 1 || s.Aux2 != 0 {
			t.Fatalf("root record = %+v", s)
		}
		if n := len(rec.of(dtrace.KindParent)); n != 0 {
			t.Fatalf("root takeover emitted %d parent records, want 0", n)
		}
	})
}
