package sim

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestKeyedOrderingAtSameInstant pins the canonical order contract:
// same-instant events fire in ascending key order regardless of
// scheduling order, key 0 first, and seq breaks ties among equal keys.
func TestKeyedOrderingAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var got []uint64
	rec := func(k uint64) func() { return func() { got = append(got, k) } }
	at := 5 * time.Millisecond
	e.ScheduleKeyed(at, 30, rec(30))
	e.ScheduleKeyed(at, 10, rec(10))
	e.Schedule(at, rec(0))
	e.ScheduleKeyed(at, 20, rec(20))
	e.ScheduleKeyed(at-time.Millisecond, 99, rec(99))
	e.RunAll()
	want := []uint64{99, 0, 10, 20, 30}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fire order = %v, want %v", got, want)
	}
}

// TestNextAtSkipsCancelled verifies the barrier peek sees through
// cancelled timers at the head of the queue.
func TestNextAtSkipsCancelled(t *testing.T) {
	e := NewEngine(1)
	h := e.Schedule(time.Millisecond, func() {})
	e.Schedule(5*time.Millisecond, func() {})
	if at, ok := e.NextAt(); !ok || at != time.Millisecond {
		t.Fatalf("NextAt = %v, %v; want 1ms, true", at, ok)
	}
	e.Cancel(h)
	if at, ok := e.NextAt(); !ok || at != 5*time.Millisecond {
		t.Errorf("NextAt after cancel = %v, %v; want 5ms, true", at, ok)
	}
	e.RunAll()
	if _, ok := e.NextAt(); ok {
		t.Error("NextAt on empty queue reported an event")
	}
}

// TestAdvanceTo pins the clock-parking primitive: forward moves the
// clock, backward is a no-op, and jumping over a live event panics
// (that would silently reorder the simulation).
func TestAdvanceTo(t *testing.T) {
	e := NewEngine(1)
	e.AdvanceTo(3 * time.Millisecond)
	if e.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v after AdvanceTo(3ms)", e.Now())
	}
	e.AdvanceTo(time.Millisecond)
	if e.Now() != 3*time.Millisecond {
		t.Errorf("backward AdvanceTo moved the clock to %v", e.Now())
	}
	e.Schedule(5*time.Millisecond, func() {})
	defer func() {
		if recover() == nil {
			t.Error("AdvanceTo past a live event did not panic")
		}
	}()
	e.AdvanceTo(10 * time.Millisecond)
}

// pingPong wires a two-node ping-pong across engines (or within one):
// each receipt at time t schedules the reply at t+lat on the other
// node's engine via the outbox, which a ShardGroup drains at barriers.
type pingPong struct {
	engines []*Engine
	outbox  [][]func() // [dst] buffered schedules
	log     []string
}

// TestShardGroupMatchesSequential runs the same cross-shard workload on
// one engine and on a two-shard group and demands identical event logs —
// the minimal version of the oracle harness netsim builds on top.
func TestShardGroupMatchesSequential(t *testing.T) {
	const lat = 3 * time.Millisecond
	run := func(shardCount int) []string {
		// The log is shared across shard goroutines (mutex), and the
		// interleaving of same-instant events on different shards is not
		// ordered — the contract is that the timestamped multiset of
		// events matches, so the log is sorted before comparison.
		var logMu sync.Mutex
		var log []string
		engines := make([]*Engine, shardCount)
		for i := range engines {
			engines[i] = NewEngine(int64(i))
		}
		type pending struct {
			at  time.Duration
			key uint64
			dst int
			fn  func()
		}
		// One outbox per sending shard, as in netsim: only the owning
		// shard's goroutine appends during a window, the drain callback
		// moves entries at barriers.
		outbox := make([][]pending, shardCount)
		engOf := func(node int) *Engine { return engines[node%shardCount] }
		var hop func(from, to int, hops int, key uint64) func()
		hop = func(from, to int, hops int, key uint64) func() {
			return func() {
				e := engOf(to)
				logMu.Lock()
				log = append(log, fmt.Sprintf("%d:%d->%d@%v", hops, from, to, e.Now()))
				logMu.Unlock()
				if hops <= 0 {
					return
				}
				at := e.Now() + lat
				nk := key*2 + uint64(to)
				next := hop(to, from, hops-1, nk)
				if engOf(from) == e {
					e.ScheduleKeyed(at, nk, next)
				} else {
					src := to % shardCount
					outbox[src] = append(outbox[src], pending{at: at, key: nk, dst: from % shardCount, fn: next})
				}
			}
		}
		drain := func() {
			for src := range outbox {
				for _, p := range outbox[src] {
					engines[p.dst].ScheduleKeyed(p.at, p.key, p.fn)
				}
				outbox[src] = outbox[src][:0]
			}
		}
		// Two interleaved ping-pong pairs with same-instant events.
		engOf(0).ScheduleKeyed(lat, 1, hop(1, 0, 6, 1))
		engOf(1).ScheduleKeyed(lat, 2, hop(0, 1, 6, 2))
		target := 100 * time.Millisecond
		if shardCount == 1 {
			drainRun := engines[0]
			drainRun.Run(target) // outbox never used: engOf always engines[0]
		} else {
			minOut := make([]time.Duration, shardCount)
			for i := range minOut {
				minOut[i] = lat
			}
			NewShardGroup(NewEngine(9), engines, minOut, drain).Run(target)
		}
		for _, e := range engines {
			if e.Now() != target {
				t.Fatalf("engine clock parked at %v, want %v", e.Now(), target)
			}
		}
		sort.Strings(log)
		return log
	}
	seq := run(1)
	par := run(2)
	if fmt.Sprint(seq) != fmt.Sprint(par) {
		t.Errorf("sharded log diverges\nseq: %v\npar: %v", seq, par)
	}
	if len(seq) == 0 {
		t.Fatal("workload fired no events")
	}
}

// TestShardGroupControlBarriers verifies control events fire exactly at
// their scheduled instants with all shard clocks agreeing (the fence
// invariant the netsim driver relies on).
func TestShardGroupControlBarriers(t *testing.T) {
	control := NewEngine(1)
	shards := []*Engine{NewEngine(2), NewEngine(3)}
	// Busy shards: self-rescheduling timers every 2ms.
	for i, e := range shards {
		var tick func()
		eng := e
		tick = func() { eng.ScheduleKeyed(eng.Now()+2*time.Millisecond, uint64(i+1)<<32|1, tick) }
		e.ScheduleKeyed(2*time.Millisecond, uint64(i+1)<<32|1, tick)
	}
	var fences []string
	for _, at := range []time.Duration{5 * time.Millisecond, 17 * time.Millisecond} {
		a := at
		control.Schedule(a, func() {
			fences = append(fences, fmt.Sprintf("%v/%v/%v/%v", a, control.Now(), shards[0].Now(), shards[1].Now()))
		})
	}
	g := NewShardGroup(control, shards, []time.Duration{time.Millisecond, time.Millisecond}, nil)
	g.Run(30 * time.Millisecond)
	want := "[5ms/5ms/5ms/5ms 17ms/17ms/17ms/17ms]"
	if got := fmt.Sprint(fences); got != want {
		t.Errorf("fence clocks = %v, want %v", got, want)
	}

	// Windows tile the run: their widths sum to the virtual time covered,
	// across repeated Run calls too. A tick every 2ms with 1ms lookahead
	// ends each window at most 2ms after it starts.
	n, covered := g.Windows()
	if covered != 30*time.Millisecond || n < 15 {
		t.Errorf("Windows() = %d, %v after Run(30ms); want >= 15, 30ms", n, covered)
	}
	g.Run(45 * time.Millisecond)
	if n2, covered := g.Windows(); covered != 45*time.Millisecond || n2 < n+7 {
		t.Errorf("Windows() = %d, %v after Run(45ms); want >= %d, 45ms", n2, covered, n+7)
	}
}

// TestShardGroupPanicPropagates ensures a panicking node callback
// surfaces on the caller's goroutine instead of deadlocking the group.
func TestShardGroupPanicPropagates(t *testing.T) {
	shards := []*Engine{NewEngine(1), NewEngine(2)}
	shards[1].ScheduleKeyed(time.Millisecond, 1, func() { panic("boom") })
	g := NewShardGroup(NewEngine(0), shards, []time.Duration{time.Second, time.Second}, nil)
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	g.Run(10 * time.Millisecond)
}
