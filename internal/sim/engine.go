// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order, so a run
// is fully reproducible given the same seed and the same sequence of
// scheduling calls. All protocol randomness should be drawn from the
// engine's RNG (or RNGs derived from it) to keep runs reproducible.
//
// The scheduler is built for allocation-free steady-state operation:
// event records live in a slab recycled through a free list, the priority
// queue is a radix heap of small value slots (events are never scheduled
// before the clock, so the queue is monotone and each slot only ever moves
// toward the front bucket), and timers are generation-checked integer
// handles, so Schedule/Cancel touch no heap memory once the slab and
// buckets have grown to the workload's high-water mark. Cancelled timers
// are discarded lazily: a stopped timer keeps its queue slot until it is
// reached or until cancelled entries exceed half of the queue, at which
// point the queue is compacted in one pass.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Handle identifies one scheduled event. The zero Handle is invalid and
// never issued; Cancel on it reports false. A handle encodes the event's
// slab slot and the slot's generation, so a handle kept after its event
// fired (or after Cancel) can never affect a later event that happens to
// reuse the same slot.
type Handle uint64

func makeHandle(idx, gen uint32) Handle { return Handle(uint64(gen)<<32 | uint64(idx)) }

func (h Handle) split() (idx, gen uint32) { return uint32(h), uint32(h >> 32) }

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now     time.Duration
	seq     uint64
	queue   radixQueue
	events  []event  // slab; heapSlot.idx indexes into it
	free    []uint32 // recycled slab slots
	stale   int      // cancelled events still occupying queue slots
	rng     *rand.Rand
	stopped bool

	// Executed counts events that have fired, for diagnostics and tests.
	executed uint64
}

// heapSlot is one queue entry: the event's deadline, its
// canonical ordering key, its scheduling sequence number (FIFO
// tie-break of last resort), and its slab slot.
//
// key exists for sharded execution: events carrying the same (at, key)
// on any engine fire in the same relative order regardless of which
// engine they were scheduled on or in what wall-clock interleaving, so
// a simulation whose events carry globally unique keys produces
// identical results at any shard count. Key 0 is the "unkeyed" class
// (control/driver events); it sorts before all keyed events at the
// same instant and falls back to seq order among itself.
type heapSlot struct {
	at  time.Duration
	key uint64
	seq uint64
	idx uint32
}

// event is one slab record. gen is bumped every time the slot is
// recycled, invalidating outstanding handles. A scheduled event holds its
// callback in fn; cancellation clears fn immediately (releasing the
// closure) and marks the record stale until its queue slot is discarded.
type event struct {
	fn        func()
	gen       uint32
	cancelled bool
}

// NewEngine returns an engine whose clock starts at zero and whose RNG is
// seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's RNG. It must only be used from event callbacks
// (the engine is single-threaded).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Executed returns the number of events that have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events currently scheduled (including
// cancelled timers whose queue slots have not yet been discarded).
func (e *Engine) Pending() int { return e.queue.count }

// Cancelled returns the number of cancelled timers still occupying queue
// slots — the queue-bloat diagnostic. It drops to zero whenever the lazy
// compaction runs or the stale slots are popped.
func (e *Engine) Cancelled() int { return e.stale }

// Timer is a handle to a scheduled event; Stop cancels it. Timer is a
// small value: copy it freely and embed it in owner structs. The zero
// Timer is inert (Stop reports false).
type Timer struct {
	e *Engine
	h Handle
}

// Stop cancels the timer. It reports whether the call prevented the event
// from firing (false if the event already fired or was already stopped).
func (t Timer) Stop() bool {
	if t.e == nil {
		return false
	}
	return t.e.Cancel(t.h)
}

// After schedules fn to run d after the current time and returns a Timer
// that can cancel it. Negative d is treated as zero.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// At schedules fn to run at absolute virtual time at. Times in the past are
// clamped to the current time (the event fires after all events already
// scheduled for the current instant).
func (e *Engine) At(at time.Duration, fn func()) Timer {
	return Timer{e: e, h: e.Schedule(at, fn)}
}

// Schedule is the raw scheduling primitive: it queues fn for absolute time
// at (clamped to now) and returns a Handle for Cancel. It allocates
// nothing once the slab and queue have reached the workload's steady-state
// size. Substrate adapters that wrap engine timers in their own handle
// types should use Schedule/Cancel directly to avoid the Timer wrapper.
func (e *Engine) Schedule(at time.Duration, fn func()) Handle {
	return e.ScheduleKeyed(at, 0, fn)
}

// ScheduleKeyed schedules fn with an explicit canonical ordering key.
// Events at the same instant fire in ascending key order (seq breaks
// remaining ties, so key 0 events keep FIFO order among themselves).
// Callers that need results independent of how events were distributed
// across shard engines must give every event a globally unique nonzero
// key; see heapSlot for the ordering contract.
func (e *Engine) ScheduleKeyed(at time.Duration, key uint64, fn func()) Handle {
	if fn == nil {
		panic("sim: nil event callback")
	}
	if at < e.now {
		at = e.now
	}
	var idx uint32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.events = append(e.events, event{gen: 1})
		idx = uint32(len(e.events) - 1)
	}
	ev := &e.events[idx]
	ev.fn = fn
	ev.cancelled = false
	e.push(heapSlot{at: at, key: key, seq: e.seq, idx: idx})
	e.seq++
	return makeHandle(idx, ev.gen)
}

// Cancel stops the event identified by h, reporting whether it prevented
// the callback from firing. The event's queue slot is discarded lazily:
// the slot is skipped when it is reached, and when cancelled slots
// outnumber live ones the whole queue is compacted in one pass.
func (e *Engine) Cancel(h Handle) bool {
	idx, gen := h.split()
	if int(idx) >= len(e.events) {
		return false
	}
	ev := &e.events[idx]
	if ev.gen != gen || ev.cancelled || ev.fn == nil {
		return false
	}
	ev.cancelled = true
	ev.fn = nil // release the closure now, not at pop time
	e.stale++
	if e.stale*2 > e.queue.count {
		e.compact()
	}
	return true
}

// CancelTimer is Cancel with an untyped handle, letting *Engine satisfy
// handle-canceller interfaces of packages that must not import sim (e.g.
// core.TimerCanceller).
func (e *Engine) CancelTimer(h uint64) bool { return e.Cancel(Handle(h)) }

// recycle returns a slab slot to the free list, invalidating handles.
func (e *Engine) recycle(idx uint32) {
	ev := &e.events[idx]
	ev.fn = nil
	ev.cancelled = false
	ev.gen++
	e.free = append(e.free, idx)
}

// AdvanceTo moves the clock forward to t without firing events. It is
// the barrier primitive for sharded execution: after Run(W-1) drains a
// half-open window [T, W), AdvanceTo(W) parks the engine exactly at the
// barrier so the next window starts from W. Calling it with a live
// event pending before t would silently reorder the simulation, so that
// is a panic; t in the past is a no-op.
func (e *Engine) AdvanceTo(t time.Duration) {
	if t <= e.now {
		return
	}
	if at, ok := e.NextAt(); ok && at < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) with live event pending at %v", t, at))
	}
	e.now = t
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue is empty or the next event
// is strictly after until. The clock is left at the time of the last fired
// event, or advanced to until if no event fired at/after it.
func (e *Engine) Run(until time.Duration) {
	e.stopped = false
	for !e.stopped && e.settle(until) {
		e.fire()
	}
	if e.now < until {
		e.now = until
	}
}

// RunAll executes events until the queue is empty. Use with care: recurring
// timers make this non-terminating.
func (e *Engine) RunAll() {
	e.stopped = false
	for !e.stopped && e.settle(math.MaxInt64) {
		e.fire()
	}
}

// Step fires the next pending event, if any, and reports whether one fired.
func (e *Engine) Step() bool {
	if !e.settle(math.MaxInt64) {
		return false
	}
	e.fire()
	return true
}

// fire pops the front slot, which settle has made live, and runs it. The
// slab slot is recycled before the callback runs, so the callback may
// freely schedule new events.
func (e *Engine) fire() {
	s := e.queue.popFront()
	if s.at < e.now {
		// Cannot happen: the queue is monotone and Schedule clamps to now.
		panic(fmt.Sprintf("sim: event at %v in the past (now %v)", s.at, e.now))
	}
	fn := e.events[s.idx].fn
	e.recycle(s.idx)
	e.now = s.at
	e.executed++
	fn()
}
