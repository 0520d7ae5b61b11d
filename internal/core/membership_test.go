package core

import (
	"testing"
	"testing/quick"
	"time"
)

func TestLearnEntryBasics(t *testing.T) {
	f := newFixture(1)
	n := f.addNode(1, DefaultConfig())
	n.learnEntry(Entry{ID: 2})
	n.learnEntry(Entry{ID: 3})
	n.learnEntry(Entry{ID: 1}) // self: ignored
	n.learnEntry(Entry{ID: None})
	if n.MemberCount() != 2 {
		t.Fatalf("members = %d, want 2", n.MemberCount())
	}
}

func TestLearnEntryUpgradesLandmarkVector(t *testing.T) {
	f := newFixture(1)
	n := f.addNode(1, DefaultConfig())
	n.learnEntry(Entry{ID: 2})
	n.learnEntry(Entry{ID: 2, Landmarks: NewLandmarkVec(10, 20)})
	ms := n.Members()
	if len(ms) != 1 || ms[0].Landmarks.Len() != 2 {
		t.Fatalf("vector-carrying entry should replace the bare one: %+v", ms)
	}
	// A bare entry must not erase a known vector.
	n.learnEntry(Entry{ID: 2})
	if ms = n.Members(); ms[0].Landmarks.Len() != 2 {
		t.Fatalf("bare entry erased the landmark vector")
	}
}

func TestMemberViewBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemberViewSize = 10
	f := newFixture(1)
	n := f.addNode(1, cfg)
	for i := NodeID(2); i < 200; i++ {
		n.learnEntry(Entry{ID: i})
	}
	if got := n.MemberCount(); got > 10 {
		t.Fatalf("view size = %d, want <= 10", got)
	}
}

func TestForgetMember(t *testing.T) {
	f := newFixture(1)
	n := f.addNode(1, DefaultConfig())
	for i := NodeID(2); i <= 5; i++ {
		n.learnEntry(Entry{ID: i})
	}
	n.forgetMember(3)
	n.forgetMember(3) // idempotent
	if n.MemberCount() != 3 {
		t.Fatalf("members = %d, want 3", n.MemberCount())
	}
	for _, e := range n.Members() {
		if e.ID == 3 {
			t.Fatalf("forgotten member still present")
		}
	}
}

func TestSampleMembersExcludesAndIncludesSelf(t *testing.T) {
	f := newFixture(1)
	n := f.addNode(1, DefaultConfig())
	for i := NodeID(2); i <= 8; i++ {
		n.learnEntry(Entry{ID: i})
	}
	s := n.sampleMembers(3, 4)
	if len(s) != 4 { // 3 sampled + self
		t.Fatalf("sample size = %d, want 4 (3 + self)", len(s))
	}
	foundSelf := false
	for _, e := range s {
		if e.ID == 4 {
			t.Fatalf("sample includes excluded node")
		}
		if e.ID == 1 {
			foundSelf = true
		}
	}
	if !foundSelf {
		t.Fatalf("sample must carry the sender's own entry")
	}
	if got := n.sampleMembers(0, None); got != nil {
		t.Fatalf("k=0 should produce nil, got %v", got)
	}
}

func TestRandomMemberFilter(t *testing.T) {
	f := newFixture(1)
	n := f.addNode(1, DefaultConfig())
	for i := NodeID(2); i <= 6; i++ {
		n.learnEntry(Entry{ID: i})
	}
	got := n.randomMember(func(id NodeID) bool { return id == 5 })
	if got < 0 || n.members.at(got).ID != 5 {
		t.Fatalf("randomMember with filter = index %d, want the index of 5", got)
	}
	if got := n.randomMember(func(NodeID) bool { return false }); got != -1 {
		t.Fatalf("impossible filter should return -1, got %d", got)
	}
}

func TestNextCandidateRoundRobinSkips(t *testing.T) {
	f := newFixture(1)
	n := f.addNode(1, DefaultConfig())
	for i := NodeID(2); i <= 5; i++ {
		n.learnEntry(Entry{ID: i})
	}
	seen := map[NodeID]int{}
	for i := 0; i < 8; i++ {
		e, ok := n.nextCandidate(func(id NodeID) bool { return id == 3 })
		if !ok {
			t.Fatalf("candidate expected")
		}
		if e.ID == 3 {
			t.Fatalf("skip filter violated")
		}
		seen[e.ID]++
	}
	// Round-robin over {2,4,5}: each seen at least twice in 8 draws.
	for _, id := range []NodeID{2, 4, 5} {
		if seen[id] < 2 {
			t.Fatalf("round robin skipped %d: %v", id, seen)
		}
	}
	if _, ok := n.nextCandidate(func(NodeID) bool { return true }); ok {
		t.Fatalf("all-skipped should report no candidate")
	}
}

func TestEstimateRTTTriangulation(t *testing.T) {
	f := newFixture(1)
	n := f.addNode(1, DefaultConfig())
	n.landVec = []uint16{100, 50, 200}
	// Same vectors: lower bound 0, upper 2*min(a_i) -> small estimate.
	near := n.estimateRTT(NewLandmarkVec(100, 50, 200))
	far := n.estimateRTT(NewLandmarkVec(400, 350, 500))
	if near >= far {
		t.Fatalf("estimate(similar)=%v should be < estimate(distant)=%v", near, far)
	}
	// Triangle bounds: |100-400|=300 lower; 100+400=500 upper -> in range.
	if far < 300*time.Millisecond || far > 500*time.Millisecond {
		t.Fatalf("estimate %v outside triangle bounds [300ms, 500ms]", far)
	}
}

func TestEstimateRTTUnknownSortsLast(t *testing.T) {
	f := newFixture(1)
	n := f.addNode(1, DefaultConfig())
	n.landVec = []uint16{100}
	unknown := n.estimateRTT(nil)
	known := n.estimateRTT(NewLandmarkVec(150))
	if unknown <= known {
		t.Fatalf("vector-less node should estimate worse than any measured node")
	}
	// Zero (unmeasured) slots are skipped.
	zeroed := n.estimateRTT(NewLandmarkVec(0))
	if zeroed != unknown {
		t.Fatalf("all-zero vector should behave as unknown")
	}
}

func TestBuildEstimatePassOrdersByEstimate(t *testing.T) {
	f := newFixture(1)
	n := f.addNode(1, DefaultConfig())
	n.landVec = []uint16{100}
	n.learnEntry(Entry{ID: 2, Landmarks: NewLandmarkVec(300)}) // est ~ (200+400)/2
	n.learnEntry(Entry{ID: 3, Landmarks: NewLandmarkVec(110)}) // est ~ (10+210)/2
	n.learnEntry(Entry{ID: 4, Landmarks: NewLandmarkVec(180)}) // est ~ (80+280)/2
	n.buildEstimatePass()
	want := []NodeID{3, 4, 2}
	if len(n.estimated) != 3 {
		t.Fatalf("estimate pass size = %d", len(n.estimated))
	}
	for i, id := range want {
		if n.estimated[i] != id {
			t.Fatalf("estimate order = %v, want %v", n.estimated, want)
		}
	}
}

// Property: the triangulated estimate always lies within the triangle
// bounds implied by the vectors.
func TestPropertyEstimateWithinBounds(t *testing.T) {
	f := newFixture(1)
	n := f.addNode(1, DefaultConfig())
	check := func(mine, theirs []uint16) bool {
		if len(mine) == 0 {
			mine = []uint16{1}
		}
		if len(theirs) == 0 {
			theirs = []uint16{1}
		}
		for i := range mine {
			if mine[i] == 0 {
				mine[i] = 1
			}
		}
		for i := range theirs {
			if theirs[i] == 0 {
				theirs[i] = 1
			}
		}
		n.landVec = mine
		est := n.estimateRTT(NewLandmarkVec(theirs...))
		m := len(mine)
		if len(theirs) < m {
			m = len(theirs)
		}
		lower, upper := int64(0), int64(1<<62)
		for i := 0; i < m; i++ {
			a, b := int64(mine[i]), int64(theirs[i])
			lo := a - b
			if lo < 0 {
				lo = -lo
			}
			if lo > lower {
				lower = lo
			}
			if a+b < upper {
				upper = a + b
			}
		}
		if upper < lower {
			upper = lower
		}
		ms := int64(est / time.Millisecond)
		return ms >= lower && ms <= upper
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSortNodeIDsAndSetHelpers(t *testing.T) {
	s := []NodeID{5, 1, 4, 1, 9}
	sortNodeIDs(s)
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatalf("not sorted: %v", s)
		}
	}
	var ids []NodeID
	addID(&ids, 3)
	addID(&ids, 3)
	addID(&ids, 7)
	if len(ids) != 2 || !containsID(ids, 3) || !containsID(ids, 7) || containsID(ids, 4) {
		t.Fatalf("set helpers wrong: %v", ids)
	}
}
