package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// queueModel is the reference the radix queue is checked against: the
// live events in a plain slice, whose (at, key, seq) minimum is the event
// that must fire next.
type queueModel struct {
	live []modelEvent
	seq  uint64
}

type modelEvent struct {
	at  time.Duration
	key uint64
	seq uint64
	t   Timer
}

func (m *queueModel) less(a, b modelEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func (m *queueModel) min() (int, bool) {
	best := -1
	for i := range m.live {
		if best < 0 || m.less(m.live[i], m.live[best]) {
			best = i
		}
	}
	return best, best >= 0
}

func (m *queueModel) remove(i int) {
	m.live[i] = m.live[len(m.live)-1]
	m.live = m.live[:len(m.live)-1]
}

// TestQueueOrderMatchesReference drives the engine with random schedules
// (many at one instant, many with equal keys, some from inside callbacks
// at the current instant), cancellations in bursts that force compaction,
// NextAt probes, AdvanceTo barriers and bounded Runs, and checks every
// fired event against the reference order.
func TestQueueOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		m := &queueModel{}
		fired := 0
		var schedule func(at time.Duration)
		schedule = func(at time.Duration) {
			if at < e.Now() {
				at = e.Now()
			}
			key := uint64(rng.Intn(4))
			seq := m.seq
			m.seq++
			ev := modelEvent{at: at, key: key, seq: seq}
			ev.t = Timer{e: e, h: e.ScheduleKeyed(at, key, func() {
				i, ok := m.min()
				if !ok {
					t.Fatalf("seed %d: event %d fired with no live event in the model", seed, seq)
				}
				want := m.live[i]
				if want.seq != seq || e.Now() != want.at {
					t.Fatalf("seed %d: fired seq %d at %v, want seq %d at %v", seed, seq, e.Now(), want.seq, want.at)
				}
				m.remove(i)
				fired++
				if rng.Intn(4) == 0 {
					// A child at the current instant or just after it.
					schedule(e.Now() + time.Duration(rng.Intn(3)))
				}
			})}
			m.live = append(m.live, ev)
		}
		delta := func() time.Duration {
			switch rng.Intn(4) {
			case 0:
				return 0 // ties at the current instant
			case 1:
				return time.Duration(rng.Intn(8)) // ties a few ns out
			case 2:
				return time.Duration(rng.Intn(1 << 20))
			default:
				return time.Duration(rng.Int63n(1 << 40))
			}
		}
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				for k := rng.Intn(20); k >= 0; k-- {
					schedule(e.Now() + delta())
				}
			case op < 6:
				// A burst of cancellations, often past half the queue.
				for k := rng.Intn(len(m.live) + 1); k > 0 && len(m.live) > 0; k-- {
					i := rng.Intn(len(m.live))
					if !m.live[i].t.Stop() {
						t.Fatalf("seed %d: Stop of a live event failed", seed)
					}
					m.remove(i)
				}
			case op < 7:
				at, ok := e.NextAt()
				i, want := m.min()
				if ok != want || (ok && at != m.live[i].at) {
					t.Fatalf("seed %d step %d: NextAt = %v,%v, want %v", seed, step, at, ok, m.live)
				}
			case op < 8:
				// Park the clock no later than the next live event.
				target := e.Now() + delta()
				if i, ok := m.min(); ok && m.live[i].at < target {
					target = m.live[i].at
				}
				e.AdvanceTo(target)
				if e.Now() < target {
					t.Fatalf("seed %d: AdvanceTo(%v) left the clock at %v", seed, target, e.Now())
				}
			default:
				until := e.Now() + delta()
				before := e.Now()
				e.Run(until)
				for _, ev := range m.live {
					if ev.at <= until {
						t.Fatalf("seed %d: Run(%v) left an event due at %v", seed, until, ev.at)
					}
				}
				if want := max(before, until); e.Now() != want {
					t.Fatalf("seed %d: Run(%v) left the clock at %v, want %v", seed, until, e.Now(), want)
				}
			}
			if got := e.Pending() - e.Cancelled(); got != len(m.live) {
				t.Fatalf("seed %d step %d: %d live slots queued, model has %d", seed, step, got, len(m.live))
			}
		}
		e.RunAll()
		if len(m.live) != 0 || e.Pending() != 0 {
			t.Fatalf("seed %d: %d model events and %d slots left after RunAll", seed, len(m.live), e.Pending())
		}
		if fired == 0 {
			t.Fatalf("seed %d: nothing fired", seed)
		}
	}
}

// TestQueueManyTiesAtOneInstant schedules thousands of events at one
// instant, keyed and unkeyed, and checks they fire in (key, seq) order.
func TestQueueManyTiesAtOneInstant(t *testing.T) {
	e := NewEngine(1)
	rng := rand.New(rand.NewSource(1))
	type tie struct {
		key uint64
		seq int
	}
	var want, got []tie
	at := 5 * time.Second
	for i := 0; i < 5000; i++ {
		tk := tie{key: uint64(rng.Intn(50)), seq: i}
		want = append(want, tk)
		e.ScheduleKeyed(at, tk.key, func() { got = append(got, tk) })
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
	e.RunAll()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired as %+v, want %+v", i, got[i], want[i])
		}
	}
}
