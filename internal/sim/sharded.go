package sim

import (
	"fmt"
	"time"
)

// ShardGroup coordinates conservative parallel execution of several
// Engines. Each shard engine owns a disjoint set of simulated nodes;
// a separate control engine owns driver events (injection schedules,
// churn, failure timers) that may touch any shard's state. Execution
// alternates between single-threaded control phases at barriers and
// parallel windows in which every shard advances independently.
//
// Safety comes from latency-bounded lookahead: minOut[s] is a lower
// bound on the delay of any event a node in shard s can schedule onto
// another shard. Within a window [T, W) chosen so that
//
//	W <= min(nextControlEvent, min_s(nextEvent_s + minOut[s]))
//
// no shard can generate an event another shard would need to execute
// before W, so shards run the window concurrently without ever seeing
// an event out of timestamp order (the classic Chandy-Misra-Bryant
// bound, with the null-message machinery replaced by a global barrier).
// Cross-shard sends buffered during the window are handed over by the
// drain callback, which the group invokes only at barriers — while all
// shard goroutines are parked — so it may freely touch every shard.
//
// Determinism: barrier placement depends only on event timestamps, and
// each shard processes its own events in (at, key, seq) order. If every
// cross-engine event carries a globally unique canonical key (see
// ScheduleKeyed), results are independent of the shard count and of OS
// scheduling, and identical to a sequential run of the same workload.
type ShardGroup struct {
	control *Engine
	shards  []*Engine
	minOut  []time.Duration
	drain   func()

	work []chan window
	done chan shardDone

	// windows counts the parallel windows run so far and covered sums
	// their virtual widths (see Windows).
	windows uint64
	covered time.Duration
}

// window is one parallel work order: run events at <= until, then park
// the clock at advance.
type window struct {
	until   time.Duration
	advance time.Duration
}

type shardDone struct {
	panicked any
}

// NewShardGroup builds a coordinator over control plus one engine per
// shard. minOut[s] must be a positive lower bound on the latency of any
// cross-shard event shard s can generate; a zero bound would make the
// parallel window empty and the loop unable to advance, so it panics.
// drain (may be nil) is called at every barrier to inject buffered
// cross-shard events; it runs single-threaded.
func NewShardGroup(control *Engine, shards []*Engine, minOut []time.Duration, drain func()) *ShardGroup {
	if len(shards) != len(minOut) {
		panic("sim: NewShardGroup shards/minOut length mismatch")
	}
	for s, d := range minOut {
		if d <= 0 {
			panic(fmt.Sprintf("sim: NewShardGroup shard %d has non-positive lookahead %v", s, d))
		}
	}
	g := &ShardGroup{
		control: control,
		shards:  shards,
		minOut:  minOut,
		drain:   drain,
		work:    make([]chan window, len(shards)),
		done:    make(chan shardDone, len(shards)),
	}
	for i := range g.work {
		g.work[i] = make(chan window, 1)
	}
	return g
}

// Windows reports how many parallel windows the group has run and the
// virtual time they covered in total: covered/count is the mean window
// width, the lookahead the partition actually buys per barrier. Both
// depend only on event timestamps, so they are deterministic.
func (g *ShardGroup) Windows() (count uint64, covered time.Duration) {
	return g.windows, g.covered
}

// runWindow dispatches one window to all shards and waits for the
// barrier. Worker panics (a node callback blowing up) are re-raised
// here so they surface on the caller's goroutine like they would in a
// sequential run.
func (g *ShardGroup) runWindow(w window) {
	for i := range g.shards {
		g.work[i] <- w
	}
	var panicked any
	for range g.shards {
		if d := <-g.done; d.panicked != nil {
			panicked = d.panicked
		}
	}
	if panicked != nil {
		panic(panicked)
	}
}

func shardWorker(e *Engine, work <-chan window, done chan<- shardDone) {
	for w := range work {
		func() {
			d := shardDone{}
			defer func() {
				if r := recover(); r != nil {
					d.panicked = r
				}
				done <- d
			}()
			e.Run(w.until)
			e.AdvanceTo(w.advance)
		}()
	}
}

// Run advances the whole group to absolute virtual time target: all
// control events at <= target fire, all shard events at <= target fire,
// and every engine's clock ends parked at target. It is the sharded
// equivalent of Engine.Run(target) and may be called repeatedly to
// continue the same simulation.
func (g *ShardGroup) Run(target time.Duration) {
	for i := range g.shards {
		go shardWorker(g.shards[i], g.work[i], g.done)
	}
	defer func() {
		for i := range g.work {
			close(g.work[i])
		}
		g.work = make([]chan window, len(g.shards))
		for i := range g.work {
			g.work[i] = make(chan window, 1)
		}
	}()

	t := g.control.Now()
	for {
		// Control phase: fire driver events due at the barrier, then let
		// them (and the window before them) hand over cross-shard sends.
		g.control.Run(t)
		if g.drain != nil {
			g.drain()
		}

		// Next barrier: the CMB lookahead bound. Control events run
		// single-threaded, so the next one is a hard ceiling; each shard
		// extends the window by its own outbound latency floor.
		w := target + 1
		if at, ok := g.control.NextAt(); ok && at < w {
			w = at
		}
		for s, e := range g.shards {
			if at, ok := e.NextAt(); ok && at+g.minOut[s] < w {
				w = at + g.minOut[s]
			}
		}
		if w > target {
			break
		}
		// Parallel half-open window [t, w): Run(w-1) fires events with
		// at <= w-1, AdvanceTo(w) parks every clock at the barrier.
		g.windows++
		g.covered += w - t
		g.runWindow(window{until: w - time.Nanosecond, advance: w})
		if g.drain != nil {
			g.drain()
		}
		t = w
	}

	// Final inclusive pass: no control events remain at <= target and no
	// shard can schedule a cross-shard event at <= target anymore (every
	// pending shard event fires at > target - minOut), so the shards can
	// finish the closed interval concurrently.
	g.windows++
	g.covered += target - t
	g.runWindow(window{until: target, advance: target})
	if g.drain != nil {
		g.drain()
	}
	g.control.Run(target) // no events left; park the control clock
}
