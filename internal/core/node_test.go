package core

import (
	"math/rand"
	"testing"
	"time"
)

func TestJoinBootstrapsMembershipAndLandmarks(t *testing.T) {
	cfg := DefaultConfig()
	f := newFixture(1)
	seed := f.addNode(1, cfg)
	joiner := f.addNode(2, cfg)
	for i := NodeID(10); i < 30; i++ {
		seed.learnEntry(Entry{ID: i})
	}
	seed.SetLandmarks([]Entry{{ID: 1}})
	seed.Start()
	joiner.Start()
	joiner.Join(Entry{ID: 1})
	f.run(2 * time.Second)
	if joiner.MemberCount() < 10 {
		t.Fatalf("joiner learned %d members, want a good share of the seed's view", joiner.MemberCount())
	}
	if len(joiner.Landmarks()) != 1 {
		t.Fatalf("joiner landmarks = %d, want 1 (from JoinReply)", len(joiner.Landmarks()))
	}
	if joiner.Root() != 1 && joiner.Root() != None {
		t.Fatalf("joiner root = %d", joiner.Root())
	}
}

func TestJoinerAcquiresNeighborsViaMaintenance(t *testing.T) {
	cfg := DefaultConfig()
	f := newFixture(2)
	var ids []NodeID
	for i := NodeID(1); i <= 8; i++ {
		ids = append(ids, i)
		f.addNode(i, cfg)
	}
	// Ring among 1..7; node 8 joins via 1.
	for i := 0; i < 7; i++ {
		f.link(ids[i], ids[(i+1)%7], Nearby)
	}
	for _, id := range ids[:7] {
		for _, other := range ids[:7] {
			if other != id {
				f.nodes[id].learnEntry(Entry{ID: other})
			}
		}
	}
	for _, id := range ids {
		f.nodes[id].Start()
	}
	f.nodes[8].Join(Entry{ID: 1})
	f.run(60 * time.Second)
	if d := f.nodes[8].Degree(); d < cfg.CRand+1 {
		t.Fatalf("joiner degree = %d after maintenance, want >= %d", d, cfg.CRand+1)
	}
}

func TestStartIsIdempotent(t *testing.T) {
	f := newFixture(1)
	n := f.addNode(1, DefaultConfig())
	n.Start()
	n.Start() // second start must not double timers
	f.run(time.Second)
	gossips := n.Stats().GossipsSent
	_ = gossips // no neighbors: zero gossips, but no panic/duplication either
	if n.Stats().GossipsSent != 0 {
		t.Fatalf("gossips without neighbors = %d", n.Stats().GossipsSent)
	}
}

func TestCountersTrackActivity(t *testing.T) {
	cfg := DefaultConfig()
	f, a, b := pair(t, cfg)
	a.BecomeRoot()
	f.run(5 * time.Second)
	a.Multicast([]byte("x"))
	f.run(3 * time.Second)
	as, bs := a.Stats(), b.Stats()
	if as.Injected != 1 {
		t.Errorf("injected = %d", as.Injected)
	}
	if as.Delivered != 1 || bs.Delivered != 1 {
		t.Errorf("delivered = %d, %d", as.Delivered, bs.Delivered)
	}
	if bs.PayloadsRecv != 1 {
		t.Errorf("payloads received at b = %d", bs.PayloadsRecv)
	}
	if as.GossipsSent == 0 || bs.GossipsRecv == 0 {
		t.Errorf("gossip counters silent: %d sent, %d recv", as.GossipsSent, bs.GossipsRecv)
	}
	if as.TreeAdverts == 0 {
		t.Errorf("tree adverts = 0 on the root")
	}
	// With only each other in their member views there is nobody to
	// probe, so no pings — maintenance wastes no traffic.
	if as.PingsSent != 0 {
		t.Errorf("pings sent with no probe candidates: %d", as.PingsSent)
	}
}

func TestGossipRoundRobinCoversAllNeighbors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableTree = false
	f := newFixture(3)
	hub := f.addNode(1, cfg)
	for i := NodeID(2); i <= 6; i++ {
		f.addNode(i, cfg)
		f.link(1, i, Nearby)
	}
	hub.Start()
	f.run(3 * time.Second)
	// Over 3 s at t=0.1 s the hub sends ~30 gossips round-robin across 5
	// neighbors: each must have received several and the counts must be
	// balanced within one.
	counts := map[NodeID]int{}
	for _, s := range f.sent {
		if s.from == 1 {
			if _, ok := s.msg.(*Gossip); ok {
				counts[s.to]++
			}
		}
	}
	if len(counts) != 5 {
		t.Fatalf("gossips reached %d neighbors, want 5", len(counts))
	}
	min, max := 1<<30, 0
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Fatalf("round robin unbalanced: %v", counts)
	}
}

func TestSelfEntryCarriesLandmarkVector(t *testing.T) {
	f := newFixture(1)
	a := f.addNode(1, DefaultConfig())
	b := f.addNode(2, DefaultConfig())
	a.SetLandmarks([]Entry{{ID: 2}})
	a.Start()
	b.Start()
	f.run(2 * time.Second) // landmark ping measured
	e := a.selfEntry()
	if e.Landmarks.Len() != 1 || e.Landmarks.At(0) == 0 {
		t.Fatalf("self entry landmark vector = %v, want measured", e.Landmarks)
	}
}

// Randomized protocol soak: a small cluster under random message, link,
// and failure events must preserve the core invariants — degree caps,
// exactly-once delivery, and no self-links.
func TestRandomizedProtocolInvariants(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			cfg := DefaultConfig()
			f := newFixture(seed)
			rng := rand.New(rand.NewSource(seed))
			f.lat = func(a, b NodeID) time.Duration {
				return time.Duration(5+((int(a)*7+int(b)*13)%90)) * time.Millisecond
			}
			const n = 12
			delivered := map[NodeID]map[MessageID]int{}
			for i := NodeID(1); i <= n; i++ {
				i := i
				node := f.addNode(i, cfg)
				delivered[i] = map[MessageID]int{}
				node.OnDeliver(func(id MessageID, _ []byte, _ time.Duration) {
					delivered[i][id]++
				})
			}
			for i := NodeID(1); i <= n; i++ {
				f.link(i, i%n+1, Random) // ring
				for j := NodeID(1); j <= n; j++ {
					if i != j {
						f.nodes[i].learnEntry(Entry{ID: j})
					}
				}
			}
			for i := NodeID(1); i <= n; i++ {
				f.nodes[i].Start()
			}
			f.nodes[1].BecomeRoot()

			for step := 0; step < 60; step++ {
				f.run(time.Second)
				switch rng.Intn(4) {
				case 0, 1:
					src := NodeID(1 + rng.Intn(n))
					if !f.down[src] {
						f.nodes[src].Multicast(nil)
					}
				case 2:
					victim := NodeID(2 + rng.Intn(n-1))
					if !f.down[victim] && countDown(f) < n/4 {
						f.down[victim] = true
						f.nodes[victim].Stop()
					}
				case 3:
					// no-op step: let maintenance churn
				}
				// Invariants hold at every step for live nodes.
				for i := NodeID(1); i <= n; i++ {
					if f.down[i] {
						continue
					}
					node := f.nodes[i]
					if d := node.RandDegree(); d > cfg.CRand+cfg.DegreeSlack {
						t.Fatalf("step %d: node %d random degree %d over cap", step, i, d)
					}
					if d := node.NearDegree(); d > cfg.CNear+cfg.DegreeSlack {
						t.Fatalf("step %d: node %d nearby degree %d over cap", step, i, d)
					}
					for _, nb := range node.Neighbors() {
						if nb.ID == i {
							t.Fatalf("node %d linked to itself", i)
						}
					}
				}
			}
			f.run(30 * time.Second)
			for i := NodeID(1); i <= n; i++ {
				if f.down[i] {
					continue
				}
				for id, count := range delivered[i] {
					if count != 1 {
						t.Fatalf("node %d delivered %s %d times", i, id, count)
					}
				}
			}
		})
	}
}

func countDown(f *fixture) int {
	c := 0
	for _, v := range f.down {
		if v {
			c++
		}
	}
	return c
}
