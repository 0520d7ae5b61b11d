package core

import (
	"testing"
	"time"

	"gocast/internal/dtrace"
)

func TestAddRequestRespectsRandomCap(t *testing.T) {
	cfg := DefaultConfig() // CRand=1, slack 5 -> cap 6
	f := newFixture(1)
	n := f.addNode(1, cfg)
	n.Start()
	for i := NodeID(10); i < 16; i++ {
		n.AddNeighborDirect(Entry{ID: i}, Random, 50*time.Millisecond)
	}
	n.HandleMessage(99, &AddRequest{From: Entry{ID: 99}, LinkKind: Random, RTT: 10 * time.Millisecond})
	if n.RandDegree() != 6 {
		t.Fatalf("random degree = %d; cap C_rand+5 violated", n.RandDegree())
	}
	if n.Stats().AddsRejected != 1 {
		t.Fatalf("rejected = %d, want 1", n.Stats().AddsRejected)
	}
	// The reply must be a rejection.
	for _, s := range f.sent {
		if r, ok := s.msg.(*AddReply); ok && s.to == 99 {
			if r.Accepted {
				t.Fatalf("reply accepted over cap")
			}
			return
		}
	}
	t.Fatalf("no AddReply sent")
}

func TestAddRequestWorstLinkCondition(t *testing.T) {
	cfg := DefaultConfig() // CNear=5
	f := newFixture(1)
	n := f.addNode(1, cfg)
	n.Start()
	for i := NodeID(10); i < 15; i++ { // exactly at target, worst RTT 90ms
		n.AddNeighborDirect(Entry{ID: i}, Nearby, time.Duration(50+i)*time.Millisecond)
	}
	worst := n.maxNearbyRTT()
	// A link worse than the current worst is refused...
	n.HandleMessage(98, &AddRequest{From: Entry{ID: 98}, LinkKind: Nearby, RTT: worst + time.Millisecond})
	if n.NearDegree() != 5 {
		t.Fatalf("worse-than-worst link accepted at target degree")
	}
	// ...but a better one is accepted.
	n.HandleMessage(99, &AddRequest{From: Entry{ID: 99}, LinkKind: Nearby, RTT: worst - time.Millisecond})
	if n.NearDegree() != 6 {
		t.Fatalf("better link rejected: near degree %d", n.NearDegree())
	}
}

func TestAddBelowTargetAcceptsAnyLatency(t *testing.T) {
	cfg := DefaultConfig()
	f := newFixture(1)
	n := f.addNode(1, cfg)
	n.Start()
	n.HandleMessage(99, &AddRequest{From: Entry{ID: 99}, LinkKind: Nearby, RTT: 5 * time.Second})
	if n.NearDegree() != 1 {
		t.Fatalf("below-target node must accept even slow links")
	}
}

func TestDropRemovesBothEnds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaintainPeriod = time.Hour // keep maintenance from re-adding the link
	f := newFixture(1)
	a := f.addNode(1, cfg)
	b := f.addNode(2, cfg)
	f.link(1, 2, Nearby)
	a.Start()
	b.Start()
	a.dropLink(2)
	f.run(time.Second)
	if a.Degree() != 0 || b.Degree() != 0 {
		t.Fatalf("degrees after drop = %d, %d; want 0, 0", a.Degree(), b.Degree())
	}
}

func TestRandomDegreeConvergesOnClique(t *testing.T) {
	// Five nodes all linked randomly to each other (degree 4 each with
	// CRand=1): maintenance must shed links down to C_rand or C_rand+1.
	cfg := DefaultConfig()
	cfg.CNear = 0 // isolate the random protocol
	f := newFixture(3)
	ids := []NodeID{1, 2, 3, 4, 5}
	for _, id := range ids {
		f.addNode(id, cfg)
	}
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			f.link(a, b, Random)
		}
	}
	for _, id := range ids {
		for _, other := range ids {
			if other != id {
				f.nodes[id].learnEntry(Entry{ID: other})
			}
		}
		f.nodes[id].Start()
	}
	f.run(30 * time.Second)
	for _, id := range ids {
		d := f.nodes[id].RandDegree()
		if d < cfg.CRand || d > cfg.CRand+1 {
			t.Errorf("node %d random degree = %d, want %d or %d", id, d, cfg.CRand, cfg.CRand+1)
		}
	}
}

func TestRebalancePreservesPeerDegrees(t *testing.T) {
	// X has random links to Y and Z (degree 3 with CRand=1): operation 1
	// should connect Y-Z and drop X-Y, X-Z.
	cfg := DefaultConfig()
	cfg.CNear = 0
	f := newFixture(2)
	x := f.addNode(1, cfg)
	y := f.addNode(2, cfg)
	z := f.addNode(3, cfg)
	w := f.addNode(4, cfg)
	f.link(1, 2, Random)
	f.link(1, 3, Random)
	f.link(1, 4, Random)
	for _, n := range []*Node{x, y, z, w} {
		n.Start()
	}
	f.run(30 * time.Second)
	if d := x.RandDegree(); d < cfg.CRand || d > cfg.CRand+1 {
		t.Errorf("x degree = %d, want %d..%d", d, cfg.CRand, cfg.CRand+1)
	}
	total := x.RandDegree() + y.RandDegree() + z.RandDegree() + w.RandDegree()
	if total < 4 {
		t.Errorf("rebalancing lost too many links: total degree %d", total)
	}
}

func TestNeighborTimeoutEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NeighborTimeout = 2 * time.Second
	f := newFixture(1)
	a := f.addNode(1, cfg)
	b := f.addNode(2, cfg)
	f.link(1, 2, Nearby)
	a.Start()
	// b never starts: it sends no gossip, so a must evict it.
	f.run(10 * time.Second)
	if a.Degree() != 0 {
		t.Fatalf("silent neighbor not evicted (degree %d)", a.Degree())
	}
	_ = b
}

func TestPeerDownCleansState(t *testing.T) {
	f := newFixture(1)
	a := f.addNode(1, DefaultConfig())
	b := f.addNode(2, DefaultConfig())
	f.link(1, 2, Nearby)
	a.Start()
	b.Start()
	a.learnEntry(Entry{ID: 2})
	a.PeerDown(2)
	if a.Degree() != 0 {
		t.Fatalf("PeerDown left the link in place")
	}
	for _, e := range a.Members() {
		if e.ID == 2 {
			t.Fatalf("dead peer still in member view")
		}
	}
}

func TestPeerDownIgnoredWithoutMaintenance(t *testing.T) {
	f := newFixture(1)
	a := f.addNode(1, DefaultConfig())
	b := f.addNode(2, DefaultConfig())
	f.link(1, 2, Nearby)
	a.Start()
	b.Start()
	a.SetMaintenance(false)
	a.PeerDown(2)
	if a.Degree() != 1 {
		t.Fatalf("stress-test mode must not react to failures")
	}
}

func TestUnsolicitedAddReplyGetsDropped(t *testing.T) {
	f := newFixture(1)
	a := f.addNode(1, DefaultConfig())
	a.Start()
	// An accept for an operation we no longer track must trigger a Drop so
	// the other side does not keep a half-open link.
	a.HandleMessage(9, &AddReply{From: Entry{ID: 9}, LinkKind: Nearby, Accepted: true})
	found := false
	for _, s := range f.sent {
		if _, ok := s.msg.(*Drop); ok && s.to == 9 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no Drop sent for unsolicited accept")
	}
	if a.Degree() != 0 {
		t.Fatalf("unsolicited accept created a link")
	}
}

func TestLinkChangeCallback(t *testing.T) {
	f := newFixture(1)
	a := f.addNode(1, DefaultConfig())
	rec := &recorder{}
	a.SetObserver(rec)
	a.Start()
	a.AddNeighborDirect(Entry{ID: 5}, Nearby, 10*time.Millisecond)
	a.dropLink(5)
	links := rec.of(dtrace.KindLinkUp, dtrace.KindLinkDown)
	if len(links) != 2 || links[0].Kind != dtrace.KindLinkUp || links[1].Kind != dtrace.KindLinkDown {
		t.Fatalf("link change records = %v, want [link-up, link-down]", links)
	}
}

func TestPickReplaceVictimHonorsC1(t *testing.T) {
	cfg := DefaultConfig()
	f := newFixture(1)
	n := f.addNode(1, cfg)
	n.AddNeighborDirect(Entry{ID: 10}, Nearby, 300*time.Millisecond)
	n.AddNeighborDirect(Entry{ID: 11}, Nearby, 100*time.Millisecond)
	// Node 10 is the worst link but its degree is dangerously low.
	n.neighbors.get(10).deg = Degrees{Near: int16(cfg.CNear - 2)}
	n.neighbors.get(10).degKnown = true
	n.neighbors.get(11).deg = Degrees{Near: int16(cfg.CNear)}
	n.neighbors.get(11).degKnown = true
	if got := n.pickReplaceVictim(None); got != 11 {
		t.Fatalf("victim = %d, want 11 (C1 must protect low-degree neighbors)", got)
	}
	// With the exclusion, no victim remains.
	if got := n.pickReplaceVictim(11); got != None {
		t.Fatalf("victim = %d, want None", got)
	}
}

func TestResumeReplaceEnforcesC4(t *testing.T) {
	cfg := DefaultConfig()
	f := newFixture(1)
	n := f.addNode(1, cfg)
	n.Start()
	n.AddNeighborDirect(Entry{ID: 10}, Nearby, 100*time.Millisecond)
	n.neighbors.get(10).deg = Degrees{Near: int16(cfg.CNear)}
	n.neighbors.get(10).degKnown = true
	before := n.Stats().AddsSent
	// Candidate with RTT 60ms: 2*60 > 100 -> C4 fails, no request.
	n.resumeReplace(Entry{ID: 20}, 60*time.Millisecond, Degrees{Near: 0})
	if n.Stats().AddsSent != before {
		t.Fatalf("C4 violated: add requested for a non-significant improvement")
	}
	// Candidate with RTT 40ms: 2*40 <= 100 -> request issued.
	n.resumeReplace(Entry{ID: 21}, 40*time.Millisecond, Degrees{Near: 0})
	if n.Stats().AddsSent != before+1 {
		t.Fatalf("C4-satisfying candidate not requested")
	}
}

func TestResumeReplaceEnforcesC3(t *testing.T) {
	cfg := DefaultConfig()
	f := newFixture(1)
	n := f.addNode(1, cfg)
	n.Start()
	n.AddNeighborDirect(Entry{ID: 10}, Nearby, 400*time.Millisecond)
	n.neighbors.get(10).deg = Degrees{Near: int16(cfg.CNear)}
	n.neighbors.get(10).degKnown = true
	before := n.Stats().AddsSent
	// Q at target degree whose worst link (50ms) beats our offer (80ms).
	n.resumeReplace(Entry{ID: 20}, 80*time.Millisecond,
		Degrees{Near: int16(cfg.CNear), MaxNearbyRTT: 50 * time.Millisecond})
	if n.Stats().AddsSent != before {
		t.Fatalf("C3 violated: requested a link Q would soon drop")
	}
}
