package fault

import (
	"testing"
	"time"
)

// send is one Judge call and its expected verdict.
type send struct {
	from, to, size int
	at             time.Duration
	wantExtra      time.Duration
	wantOK         bool
}

// judgeAll runs the table against s in order.
func judgeAll(t *testing.T, s *State, table []send) {
	t.Helper()
	for i, c := range table {
		extra, ok := s.Judge(c.from, c.to, c.size, c.at)
		if extra != c.wantExtra || ok != c.wantOK {
			t.Errorf("send %d (%d->%d, %d B at %v): got (%v, %v), want (%v, %v)",
				i, c.from, c.to, c.size, c.at, extra, ok, c.wantExtra, c.wantOK)
		}
	}
}

// TestPartitionBlocksAndHeals checks that a partition blocks traffic
// between cells both ways, leaves traffic within a cell and from nodes in
// no cell alone, and that installing nil heals it.
func TestPartitionBlocksAndHeals(t *testing.T) {
	var s State
	s.Set(&Spec{Seed: 1, Partition: [][]int{{0, 1}, {2, 3}}})
	judgeAll(t, &s, []send{
		{from: 0, to: 1, wantOK: true},
		{from: 0, to: 2, wantOK: false},
		{from: 3, to: 1, wantOK: false},
		{from: 3, to: 2, wantOK: true},
		{from: 4, to: 0, wantOK: true},
		{from: 2, to: 4, wantOK: true},
	})
	if got := s.Stats().Blocked; got != 2 {
		t.Fatalf("Blocked = %d, want 2", got)
	}
	s.Set(nil)
	if s.Active() {
		t.Fatal("Set(nil) left a fault installed")
	}
	judgeAll(t, &s, []send{{from: 0, to: 2, wantOK: true}, {from: 3, to: 1, wantOK: true}})
	if got := s.Stats().Blocked; got != 2 {
		t.Fatalf("Blocked = %d after heal, want 2 (cumulative, no new blocks)", got)
	}
}

// TestLossIsSeededAndCounted checks that probabilistic loss replays
// exactly for a given seed, is counted, and that a directed rule with
// Loss 1 is a one-way block.
func TestLossIsSeededAndCounted(t *testing.T) {
	verdicts := func(seed int64) ([]bool, Stats) {
		var s State
		s.Set(&Spec{Seed: seed, Rules: []Link{{Loss: 0.3}}})
		out := make([]bool, 1000)
		for i := range out {
			_, out[i] = s.Judge(i%16, (i+1)%16, 100, 0)
		}
		return out, s.Stats()
	}
	v1, s1 := verdicts(99)
	v2, s2 := verdicts(99)
	v3, _ := verdicts(100)
	if s1.Dropped < 200 || s1.Dropped > 400 {
		t.Fatalf("Dropped = %d of 1000 at 30%% loss", s1.Dropped)
	}
	if s1 != s2 {
		t.Fatalf("same seed, different stats: %+v vs %+v", s1, s2)
	}
	same := true
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("same seed, verdict %d differs", i)
		}
		same = same && v1[i] == v3[i]
	}
	if same {
		t.Fatal("seeds 99 and 100 drew identical verdicts")
	}

	var s State
	s.Set(&Spec{Rules: []Link{{From: Range{0, 1}, To: Range{1, 2}, Loss: 1}}})
	judgeAll(t, &s, []send{
		{from: 0, to: 1, wantOK: false},
		{from: 1, to: 0, wantOK: true},
		{from: 0, to: 2, wantOK: true},
	})
	if got := s.Stats().Dropped; got != 1 {
		t.Fatalf("one-way rule: Dropped = %d, want 1", got)
	}
}

// TestBandwidthFIFOQueueing pins the FIFO serialization model:
// back-to-back transmissions on a capped link queue behind each other,
// distinct endpoint pairs keep independent clocks, the uncapped direction
// is free, an idle link recovers, and a new spec starts idle.
func TestBandwidthFIFOQueueing(t *testing.T) {
	var s State
	// 1 KiB/s cap on everything node 0 sends.
	spec := &Spec{Seed: 1, Rules: []Link{{From: Range{0, 1}, BytesPerSec: 1024}}}
	s.Set(spec)
	now := 10 * time.Second
	judgeAll(t, &s, []send{
		{from: 0, to: 1, size: 2048, at: now, wantExtra: 2 * time.Second, wantOK: true},
		{from: 0, to: 1, size: 2048, at: now, wantExtra: 4 * time.Second, wantOK: true},
		{from: 0, to: 2, size: 1024, at: now, wantExtra: time.Second, wantOK: true},
		{from: 1, to: 0, size: 4096, at: now, wantExtra: 0, wantOK: true},
		{from: 0, to: 1, size: 1024, at: now + time.Minute, wantExtra: time.Second, wantOK: true},
	})
	if got := s.Stats().Throttled; got != 4 {
		t.Fatalf("Throttled = %d, want 4 (every capped send paid serialization)", got)
	}
	s.Set(spec)
	judgeAll(t, &s, []send{{from: 0, to: 1, size: 1024, at: now, wantExtra: time.Second, wantOK: true}})
}

// TestSlowLinkDelays checks that Extra applies to matching links only,
// that jitter stays within [Extra, Extra+Jitter), that delays are counted
// under the four counter names, and that a cleared state judges nothing.
func TestSlowLinkDelays(t *testing.T) {
	var s State
	s.Set(&Spec{Seed: 1, Rules: []Link{
		{To: Range{0, 4}, Extra: 200 * time.Millisecond},
		{To: Range{4, 8}, Extra: 50 * time.Millisecond, Jitter: 10 * time.Millisecond},
	}})
	judgeAll(t, &s, []send{
		{from: 5, to: 1, wantExtra: 200 * time.Millisecond, wantOK: true},
		{from: 1, to: 9, wantExtra: 0, wantOK: true},
	})
	jittered := false
	for i := 0; i < 100; i++ {
		extra, ok := s.Judge(1, 6, 0, 0)
		if !ok || extra < 50*time.Millisecond || extra >= 60*time.Millisecond {
			t.Fatalf("jittered send: (%v, %v), want delay in [50ms, 60ms)", extra, ok)
		}
		jittered = jittered || extra != 50*time.Millisecond
	}
	if !jittered {
		t.Fatal("jitter never moved the delay")
	}
	want := map[string]int64{"fault_blocked": 0, "fault_dropped": 0, "fault_delayed": 101, "fault_throttled": 0}
	got := s.Stats().Counters()
	if len(got) != len(want) {
		t.Fatalf("Counters() = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Counters() = %v, want %v", got, want)
		}
	}
	s.Set(&Spec{Seed: 1})
	before := s.Stats()
	judgeAll(t, &s, []send{{from: 5, to: 1, wantOK: true}})
	if s.Active() || s.Stats() != before {
		t.Fatal("an empty spec still judges traffic")
	}
}
