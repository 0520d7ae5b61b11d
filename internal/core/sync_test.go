package core

import (
	"testing"
	"time"
)

func isSyncRequest(m Message) bool { _, ok := m.(*SyncRequest); return ok }
func isSyncReply(m Message) bool   { _, ok := m.(*SyncReply); return ok }

// quietConfig returns a config with gossip and tree effectively frozen so
// only the sync protocol can move payloads between nodes.
func quietConfig() Config {
	cfg := DefaultConfig()
	cfg.EnableTree = false
	cfg.GossipPeriod = time.Hour
	cfg.MaintainPeriod = time.Hour
	return cfg
}

func TestSyncRecoversBacklogForEmptyRequester(t *testing.T) {
	cfg := quietConfig()
	f := newFixture(21)
	a := f.addNode(1, cfg)
	b := f.addNode(2, cfg)
	// Deliberately unlinked: sync must work between any reachable pair
	// (the rejoin trigger targets the join contact, not a neighbor).
	a.Start()
	b.Start()
	for i := 0; i < 5; i++ {
		a.Multicast([]byte("backlog"))
	}
	got := 0
	b.OnDeliver(func(MessageID, []byte, time.Duration) { got++ })
	// b opens a sync round with an (empty-store) digest.
	b.requestSync(1, true)
	f.run(time.Second)
	if got != 5 {
		t.Fatalf("recovered %d messages via sync, want 5", got)
	}
	if a.Stats().SyncItemsSent != 5 || b.Stats().SyncItemsRecv != 5 {
		t.Fatalf("sync item counters: sent=%d recv=%d", a.Stats().SyncItemsSent, b.Stats().SyncItemsRecv)
	}
	if b.Stats().PullsSent != 0 {
		t.Fatalf("recovery used pulls, not sync")
	}
}

func TestSyncReplyRespectsByteBudgetAndPaces(t *testing.T) {
	cfg := quietConfig()
	cfg.SyncBatchBytes = 1024 // each reply carries at most ~1 KiB of payload
	f := newFixture(22)
	a := f.addNode(1, cfg)
	b := f.addNode(2, cfg)
	f.link(1, 2, Nearby)
	a.Start()
	b.Start()
	payload := make([]byte, 400)
	for i := 0; i < 10; i++ {
		a.Multicast(payload)
	}
	got := 0
	b.OnDeliver(func(MessageID, []byte, time.Duration) { got++ })
	b.requestSync(1, true)
	f.run(5 * time.Second)
	if got != 10 {
		t.Fatalf("recovered %d messages, want 10", got)
	}
	// 10 * 400 B at <= 1024 B per reply (plus the guaranteed first item)
	// needs at least 4 reply batches, so the More loop must have run.
	if n := f.count(1, 2, isSyncReply); n < 4 {
		t.Fatalf("reply batches = %d, want >= 4 (budget not respected)", n)
	}
	if n := f.count(2, 1, isSyncRequest); n < 4 {
		t.Fatalf("sync requests = %d, want >= 4 (More loop did not pace)", n)
	}
	for _, s := range f.sent {
		r, ok := s.msg.(*SyncReply)
		if !ok {
			continue
		}
		bytes := 0
		for _, it := range r.Items {
			bytes += len(it.Payload)
		}
		if bytes > cfg.SyncBatchBytes+len(payload) {
			t.Fatalf("reply carried %d payload bytes, budget %d", bytes, cfg.SyncBatchBytes)
		}
	}
}

func TestSyncSkipsReclaimedBelowRemoteLowWatermark(t *testing.T) {
	cfg := quietConfig()
	f := newFixture(23)
	a := f.addNode(1, cfg)
	b := f.addNode(2, cfg)
	// Unlinked, so the link-add heal round cannot reconcile them first.
	a.Start()
	b.Start()
	for i := 0; i < 4; i++ {
		a.Multicast([]byte("x"))
	}
	// b already holds seq 0..1 and has deliberately reclaimed nothing; its
	// digest says [0,1], so only 2..3 must flow.
	for seq := uint32(0); seq < 2; seq++ {
		id := MessageID{Source: 1, Seq: seq}
		payload, _ := a.Store().Get(sid(id))
		b.HandleMessage(1, &Multicast{ID: id, Payload: payload})
	}
	f.run(time.Second)
	recvBefore := b.Stats().SyncItemsRecv
	b.requestSync(1, true)
	f.run(time.Second)
	if got := b.Stats().SyncItemsRecv - recvBefore; got != 2 {
		t.Fatalf("sync transferred %d items, want exactly the 2 missing", got)
	}
}

func TestPullMissAdvancesToNextHolderImmediately(t *testing.T) {
	cfg := quietConfig()
	cfg.SyncInterval = -1     // pin the pull-miss path; sync would also recover it
	cfg.PullRetry = time.Hour // retries must not be what saves us
	f := newFixture(24)
	b := f.addNode(2, cfg)
	c := f.addNode(3, cfg)
	b.AddNeighborDirect(Entry{ID: 1}, Nearby, 20*time.Millisecond)
	f.link(2, 3, Nearby)
	b.Start()
	c.Start()
	id := MessageID{Source: 9, Seq: 0}
	c.HandleMessage(9, &Multicast{ID: id, Payload: []byte("v")})
	var got []byte
	b.OnDeliver(func(_ MessageID, p []byte, _ time.Duration) { got = p })
	// b learns the ID from node 1 (which no longer holds it) and from c.
	b.HandleMessage(1, &Gossip{IDs: []GossipID{{ID: id}}})
	b.HandleMessage(3, &Gossip{IDs: []GossipID{{ID: id}}})
	f.run(100 * time.Millisecond)
	// Node 1 reports the payload gone; b must move to c at once.
	b.HandleMessage(1, &PullMiss{IDs: []MessageID{id}})
	f.run(time.Second)
	if string(got) != "v" {
		t.Fatalf("pull miss did not advance to the next holder; got %q", got)
	}
	if b.Stats().PullMissesRecv != 1 {
		t.Fatalf("PullMissesRecv = %d, want 1", b.Stats().PullMissesRecv)
	}
	if b.Stats().PullRetries != 0 {
		t.Fatalf("delivery needed %d timer retries; miss handling failed", b.Stats().PullRetries)
	}
}

func TestPullMissWithNoHoldersFallsBackToSync(t *testing.T) {
	cfg := quietConfig()
	cfg.PullRetry = time.Hour
	f := newFixture(25)
	b := f.addNode(2, cfg)
	b.Start()
	id := MessageID{Source: 9, Seq: 0}
	// b learns the ID from its only known holder, which then reports the
	// payload reclaimed: no holder remains, so b must open a digest sync
	// with the reporting peer instead of stalling forever.
	b.AddNeighborDirect(Entry{ID: 5}, Nearby, 20*time.Millisecond)
	b.HandleMessage(5, &Gossip{IDs: []GossipID{{ID: id}}})
	f.run(100 * time.Millisecond)
	reqBefore := f.count(2, 5, isSyncRequest)
	b.HandleMessage(5, &PullMiss{IDs: []MessageID{id}})
	f.run(time.Second)
	if f.count(2, 5, isSyncRequest) != reqBefore+1 {
		t.Fatalf("expired pull did not fall back to sync")
	}
	if _, stillPending := b.pending[pid(id)]; stillPending {
		t.Fatalf("pull state not cleared after final miss")
	}
}

func TestSyncDisabledSendsNothing(t *testing.T) {
	cfg := quietConfig()
	cfg.SyncInterval = -1
	f := newFixture(26)
	a := f.addNode(1, cfg)
	b := f.addNode(2, cfg)
	f.link(1, 2, Nearby)
	a.Start()
	b.Start()
	a.Multicast([]byte("x"))
	b.requestSync(1, true)
	b.requestSync(1, false)
	f.run(2 * time.Minute)
	if n := f.count(2, 1, isSyncRequest); n != 0 {
		t.Fatalf("disabled sync still sent %d requests", n)
	}
}

func TestPeriodicSyncReconcilesNeighbors(t *testing.T) {
	cfg := quietConfig()
	cfg.SyncInterval = 10 * time.Second
	f := newFixture(27)
	a := f.addNode(1, cfg)
	b := f.addNode(2, cfg)
	a.Start()
	b.Start()
	// The message lands at a before any link to b exists; freezing gossip
	// means only the periodic sync round can reconcile after linking.
	a.Multicast([]byte("periodic"))
	var got []byte
	b.OnDeliver(func(_ MessageID, p []byte, _ time.Duration) { got = p })
	f.link(1, 2, Nearby)
	// The link-add heal round and the periodic round both qualify; either
	// way the payload must arrive within a couple of intervals.
	f.run(3 * cfg.SyncInterval)
	if string(got) != "periodic" {
		t.Fatalf("periodic sync never reconciled the pair")
	}
}

func TestMulticastStoredOnceAndPullServedFromStore(t *testing.T) {
	cfg := quietConfig()
	f := newFixture(28)
	a := f.addNode(1, cfg)
	a.Start()
	id := a.Multicast([]byte("x"))
	if puts := a.Store().Counters()["puts"]; puts != 1 {
		t.Fatalf("store puts = %d, want 1 (dissemination not routed through the store)", puts)
	}
	stored, ok := a.Store().Get(sid(id))
	if !ok {
		t.Fatalf("multicast payload not in the store")
	}
	a.HandleMessage(2, &PullRequest{IDs: []MessageID{id}})
	var served []byte
	for _, s := range f.sent {
		if m, ok := s.msg.(*Multicast); ok && s.from == 1 && s.to == 2 && m.ID == id {
			served = m.Payload
		}
	}
	if len(served) == 0 || &served[0] != &stored[0] {
		t.Fatalf("pull reply %q does not carry the store's buffer", served)
	}
}
