package core

import (
	"math/rand"
	"testing"
	"time"
)

// sliceModel is the pre-bitmask bookkeeping: per-message NodeID slices,
// kept as the reference implementation the masks must agree with on every
// decision the protocol actually takes.
type sliceModel struct {
	announcedTo []NodeID
	heardFrom   []NodeID
}

// TestBitmaskMatchesSliceModel drives a node's per-message neighbor
// bitmasks and the old slice-scan model through a randomized schedule of
// link adds/removes, hear events (including from non-neighbors), and
// gossip announcements, asserting that every protocol-visible decision —
// the announce-skip check, the retirement coverage check, and the
// Reannounced accounting on re-link — is identical.
func TestBitmaskMatchesSliceModel(t *testing.T) {
	f := newFixture(77)
	cfg := DefaultConfig()
	cfg.SyncInterval = -1
	a := f.addNode(1, cfg)
	a.Start()

	rng := rand.New(rand.NewSource(99))
	peers := []NodeID{2, 3, 4, 5, 6, 7, 8, 9}
	isNeighbor := func(p NodeID) bool { return a.neighbors.has(p) }

	// One tracked message, kept un-retired by hand so decisions stay live.
	id := a.Multicast([]byte("m"))
	st := a.seen[pid(id)]
	model := &sliceModel{}

	checkDecisions := func(step int) {
		t.Helper()
		for _, y := range a.neighbors.ids {
			bit := a.slotBit(y)
			gotSkip := (st.heardMask|st.announcedMask)&bit != 0
			wantSkip := containsID(model.heardFrom, y) || containsID(model.announcedTo, y)
			if gotSkip != wantSkip {
				t.Fatalf("step %d: announce-skip for %d = %v, slice model says %v", step, y, gotSkip, wantSkip)
			}
		}
		gotCovered := (st.heardMask|st.announcedMask)&a.liveMask == a.liveMask
		wantCovered := true
		for _, y := range a.neighbors.ids {
			if !containsID(model.heardFrom, y) && !containsID(model.announcedTo, y) {
				wantCovered = false
				break
			}
		}
		if gotCovered != wantCovered {
			t.Fatalf("step %d: coverage = %v, slice model says %v", step, gotCovered, wantCovered)
		}
	}

	for step := 0; step < 2000; step++ {
		p := peers[rng.Intn(len(peers))]
		switch rng.Intn(4) {
		case 0: // link the peer (scrubs its stale marks, counts reannounces)
			if !isNeighbor(p) {
				wantRe := int64(0)
				if containsID(model.announcedTo, p) {
					wantRe = 1
				}
				before := a.stats.Reannounced
				a.AddNeighborDirect(Entry{ID: p}, Random, 10*time.Millisecond)
				if got := a.stats.Reannounced - before; got != wantRe {
					t.Fatalf("step %d: relink of %d counted %d reannounces, slice model says %d", step, p, got, wantRe)
				}
				removeID(&model.announcedTo, p)
				removeID(&model.heardFrom, p)
			}
		case 1: // break the link (marks are retained in both designs)
			if isNeighbor(p) {
				a.removeNeighbor(p, false)
			}
		case 2: // hear the ID from p — neighbor or not
			st.heardMask |= a.slotBit(p)
			addID(&model.heardFrom, p)
		case 3: // gossip-announce to p if it is a neighbor and not skipped
			if isNeighbor(p) {
				bit := a.slotBit(p)
				if (st.heardMask|st.announcedMask)&bit == 0 {
					st.announcedMask |= bit
					addID(&model.announcedTo, p)
				}
			}
		}
		checkDecisions(step)
	}
}

// TestSlotExhaustionScrub forces all 64 slots into use so the retired
// slots are scrubbed, and checks in-flight masks drop the scrubbed bits.
func TestSlotExhaustionScrub(t *testing.T) {
	f := newFixture(78)
	cfg := DefaultConfig()
	cfg.SyncInterval = -1
	a := f.addNode(1, cfg)
	a.Start()

	id := a.Multicast([]byte("m"))
	st := a.seen[pid(id)]

	// Cycle 64 distinct peers through a link: each retires a distinct slot
	// with a heard bit set in the tracked message.
	for p := NodeID(100); p < 164; p++ {
		a.AddNeighborDirect(Entry{ID: p}, Random, time.Millisecond)
		st.heardMask |= a.slotBit(p)
		a.removeNeighbor(p, false)
	}
	if a.slotUsed != ^uint64(0) {
		t.Fatalf("expected all 64 slots retired, used=%064b", a.slotUsed)
	}
	// The 65th holder forces a scrub: retired bits must leave the message.
	a.AddNeighborDirect(Entry{ID: 200}, Random, time.Millisecond)
	nb := a.neighbors.get(200)
	if nb == nil || nb.slot == invalidSlot {
		t.Fatalf("new neighbor got no slot after scrub")
	}
	if st.heardMask&^(1<<nb.slot) != 0 {
		t.Fatalf("scrub left stale bits: %064b", st.heardMask)
	}
	if a.retiredSlots.len() != 0 {
		t.Fatalf("retired slots not cleared by scrub: %v", a.retiredSlots.appendKeys(nil))
	}
}
