package live

import (
	"errors"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gocast/internal/core"
)

// Overload protection for the live runtime. Three cooperating pieces:
//
//   - A prioritized mailbox replaces the node's single bounded channel.
//     Every unit of event-loop work is admitted under a core.Class:
//     Critical work (tree forwards, membership, timers, API calls) gets a
//     dedicated lane with blocking admission — the natural backpressure
//     path for TCP readLoops and local callers — while Repair and
//     Background work is admitted non-blocking and shed when its lane
//     fills, Background first.
//
//   - A degradation governor samples queue occupancy (mailbox lanes plus
//     the transport's per-peer outbound rings, when the transport reports
//     them), shed activity, and the optional memory budget, and drives the
//     node through Healthy -> Degraded -> Shedding with hysteresis on the
//     way back down. Degraded stretches the core's periodic gossip/sync
//     intervals (core.SetOverload); Shedding additionally rejects new
//     local publishes with ErrOverloaded.
//
//   - Panic containment: every closure the event loop runs is wrapped in
//     a recover so one bad callback (a panicking OnDeliver, a protocol
//     bug) is counted and surfaced through Health() instead of killing
//     the whole process.

// ErrOverloaded reports a publish rejected because the node is in the
// Shedding state: its queues (or memory budget) are saturated and admitting
// new local traffic would force it to drop higher-value forwarding work.
// Callers should back off and retry; the node recovers automatically once
// pressure drains.
var ErrOverloaded = errors.New("live: node overloaded, publish rejected")

// OverloadOptions tunes the live node's overload protection. The zero value
// selects the defaults documented per field.
type OverloadOptions struct {
	// MailboxCritical caps the Critical mailbox lane (default 1024).
	// Admission to this lane blocks the poster while it is full — that is
	// the hard budget: Critical work is never shed, it backpressures.
	MailboxCritical int
	// MailboxRepair caps the Repair lane (default 512); overflow is shed.
	MailboxRepair int
	// MailboxBackground caps the Background lane (default 256); overflow
	// is shed first.
	MailboxBackground int
	// MemBudget is an approximate byte budget covering the message store
	// plus queued outbound frames. While usage exceeds 75% of the budget
	// the governor holds the node at least Degraded; at or above 100% it
	// enters Shedding. 0 disables budget pressure.
	MemBudget int64
	// DegradeAt is the worst-lane occupancy fraction at which the node
	// leaves Healthy (default 0.5). Recovery requires occupancy below
	// DegradeAt/2 for HysteresisTicks consecutive evaluations.
	DegradeAt float64
	// ShedAt is the critical-lane occupancy fraction at which the node
	// enters Shedding (default 0.85). Leaving Shedding requires critical
	// occupancy below ShedAt/2 for HysteresisTicks consecutive
	// evaluations.
	ShedAt float64
	// EvalInterval is the governor's sampling period (default 100ms). The
	// transport may additionally kick an immediate evaluation when a
	// queue crosses its pressure watermark.
	EvalInterval time.Duration
	// HysteresisTicks is how many consecutive below-threshold evaluations
	// a downward transition requires (default 3). One "hysteresis window"
	// is HysteresisTicks * EvalInterval.
	HysteresisTicks int
	// Logf receives overload log lines (state transitions, rate-limited
	// shed reports, recovered panics). Defaults to log.Printf.
	Logf func(format string, args ...any)
}

const (
	defMailboxCritical   = 1024
	defMailboxRepair     = 512
	defMailboxBackground = 256
	defDegradeAt         = 0.5
	defShedAt            = 0.85
	defEvalInterval      = 100 * time.Millisecond
	defHysteresisTicks   = 3

	// shedLogInterval rate-limits the "mailbox shedding" log line.
	shedLogInterval = 5 * time.Second
)

func (o OverloadOptions) withDefaults() OverloadOptions {
	if o.MailboxCritical <= 0 {
		o.MailboxCritical = defMailboxCritical
	}
	if o.MailboxRepair <= 0 {
		o.MailboxRepair = defMailboxRepair
	}
	if o.MailboxBackground <= 0 {
		o.MailboxBackground = defMailboxBackground
	}
	if o.DegradeAt <= 0 || o.DegradeAt > 1 {
		o.DegradeAt = defDegradeAt
	}
	if o.ShedAt <= 0 || o.ShedAt > 1 {
		o.ShedAt = defShedAt
	}
	if o.EvalInterval <= 0 {
		o.EvalInterval = defEvalInterval
	}
	if o.HysteresisTicks <= 0 {
		o.HysteresisTicks = defHysteresisTicks
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// QueuePressure reports a transport's outbound queue occupancy to the
// overload governor. Fractions are relative to the per-class soft caps;
// Critical may exceed 1.0 while a ring grows toward its hard cap.
type QueuePressure struct {
	// Critical is the worst per-peer Critical-ring occupancy.
	Critical float64
	// Worst is the worst occupancy across all classes and peers.
	Worst float64
	// QueuedBytes is the total frame bytes queued across all peers.
	QueuedBytes int64
}

// queuePressurer is implemented by transports that expose outbound queue
// occupancy (TCPTransport does). The governor polls it each evaluation.
type queuePressurer interface{ QueuePressure() QueuePressure }

// pressureNotifier is implemented by transports that can kick the governor
// when a queue crosses its watermark, so Shedding engages without waiting
// for the next periodic evaluation.
type pressureNotifier interface{ SetPressureHandler(func()) }

// admit is the outcome of a mailbox push.
type admit int8

const (
	admitOK admit = iota
	admitShed
	admitStopped
)

// funcRing is a circular buffer of closures that grows lazily up to a fixed
// capacity.
type funcRing struct {
	buf  []func()
	head int
	n    int
	cap  int
}

func (r *funcRing) full() bool { return r.n >= r.cap }

func (r *funcRing) push(fn func()) bool {
	if r.n >= r.cap {
		return false
	}
	if r.n == len(r.buf) {
		grown := len(r.buf) * 2
		if grown < 16 {
			grown = 16
		}
		if grown > r.cap {
			grown = r.cap
		}
		nb := make([]func(), grown)
		for i := 0; i < r.n; i++ {
			nb[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf = nb
		r.head = 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = fn
	r.n++
	return true
}

func (r *funcRing) pop() (func(), bool) {
	if r.n == 0 {
		return nil, false
	}
	fn := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return fn, true
}

// mailbox is the node's prioritized event queue: one lane per core.Class,
// popped Critical first. Critical admission may block (backpressure);
// Repair and Background admission never blocks (it yields the processor
// once to the loop) and sheds on overflow.
type mailbox struct {
	mu      sync.Mutex
	space   sync.Cond // signaled when the Critical lane frees a slot or on stop
	rings   [core.NumClasses]funcRing
	stopped bool
	shed    [core.NumClasses]int64

	// wake carries at most one token; the loop drains all lanes per token.
	wake chan struct{}
}

func newMailbox(caps [core.NumClasses]int) *mailbox {
	mb := &mailbox{wake: make(chan struct{}, 1)}
	mb.space.L = &mb.mu
	for c := range mb.rings {
		mb.rings[c].cap = caps[c]
	}
	return mb
}

// push admits fn under class cls. When wait is true and cls is Critical the
// caller blocks until a slot frees (or the mailbox stops); otherwise a full
// lane sheds immediately.
func (mb *mailbox) push(cls core.Class, fn func(), wait bool) admit {
	mb.mu.Lock()
	r := &mb.rings[cls]
	if wait && cls == core.ClassCritical {
		for r.full() && !mb.stopped {
			mb.space.Wait()
		}
	} else if cls != core.ClassCritical && r.full() {
		// A full lane often only means the event loop has not run since
		// the poster — a transport reader working through a buffer of
		// frames — filled it. Yield the processor once before shedding: on
		// a saturated machine a poster that sheds is burning the CPU time
		// the loop needs to make room. A lane still full afterwards is
		// sustained overload, and the work is shed as before.
		mb.mu.Unlock()
		runtime.Gosched()
		mb.mu.Lock()
	}
	if mb.stopped {
		mb.mu.Unlock()
		return admitStopped
	}
	if !r.push(fn) {
		mb.shed[cls]++
		mb.mu.Unlock()
		return admitShed
	}
	mb.mu.Unlock()
	select {
	case mb.wake <- struct{}{}:
	default:
	}
	return admitOK
}

// pop dequeues the highest-priority pending closure.
func (mb *mailbox) pop() (func(), bool) {
	mb.mu.Lock()
	for c := range mb.rings {
		if fn, ok := mb.rings[c].pop(); ok {
			if core.Class(c) == core.ClassCritical {
				mb.space.Signal()
			}
			mb.mu.Unlock()
			return fn, true
		}
	}
	mb.mu.Unlock()
	return nil, false
}

// stop marks the mailbox closed and releases every poster blocked on the
// Critical lane. Queued work remains poppable for the stop drain.
func (mb *mailbox) stop() {
	mb.mu.Lock()
	mb.stopped = true
	mb.space.Broadcast()
	mb.mu.Unlock()
	select {
	case mb.wake <- struct{}{}:
	default:
	}
}

// pressure returns the Critical-lane occupancy fraction and the worst
// occupancy across all lanes.
func (mb *mailbox) pressure() (crit, worst float64) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for c := range mb.rings {
		f := float64(mb.rings[c].n) / float64(mb.rings[c].cap)
		if core.Class(c) == core.ClassCritical {
			crit = f
		}
		if f > worst {
			worst = f
		}
	}
	return crit, worst
}

// shedTotal returns the cumulative shed count across all lanes.
func (mb *mailbox) shedTotal() int64 {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.shed[0] + mb.shed[1] + mb.shed[2]
}

// depths snapshots the per-lane queue depths (tests, status surfacing).
func (mb *mailbox) depths() [core.NumClasses]int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var out [core.NumClasses]int
	for c := range mb.rings {
		out[c] = mb.rings[c].n
	}
	return out
}

// governor is the node-level degradation state machine. The mutable state
// (cur, below, lastShed) is touched only on the event loop; level mirrors
// cur atomically for lock-free reads from Publish and accessors.
type governor struct {
	opts OverloadOptions

	level atomicLevel

	// Event-loop-only state.
	cur      core.OverloadLevel
	below    int
	lastShed int64
}

// atomicLevel is a tiny typed wrapper so readers cannot forget the cast.
type atomicLevel struct{ v atomic.Int32 }

func (a *atomicLevel) store(l core.OverloadLevel) { a.v.Store(int32(l)) }
func (a *atomicLevel) load() core.OverloadLevel   { return core.OverloadLevel(a.v.Load()) }

// step advances the state machine one evaluation given the observed
// pressure signals and returns the (possibly unchanged) level. Upward
// transitions are immediate; downward transitions require
// HysteresisTicks consecutive below-threshold evaluations.
//
//	crit      worst Critical occupancy (mailbox lane or transport ring)
//	worst     worst occupancy across every lane/ring/class
//	memFrac   memory use as a fraction of MemBudget (0 when unbudgeted)
//	shedDelta units shed since the previous evaluation
func (g *governor) step(crit, worst, memFrac float64, shedDelta int64) core.OverloadLevel {
	degradeIn := worst >= g.opts.DegradeAt || shedDelta > 0 || memFrac >= 0.75
	shedIn := crit >= g.opts.ShedAt || memFrac >= 1
	degradeOut := worst < g.opts.DegradeAt/2 && shedDelta == 0 && memFrac < 0.75
	shedOut := crit < g.opts.ShedAt/2 && memFrac < 1

	next := g.cur
	switch g.cur {
	case core.OverloadHealthy:
		if shedIn {
			next = core.OverloadShedding
		} else if degradeIn {
			next = core.OverloadDegraded
		}
	case core.OverloadDegraded:
		if shedIn {
			next = core.OverloadShedding
			g.below = 0
		} else if degradeOut {
			if g.below++; g.below >= g.opts.HysteresisTicks {
				next = core.OverloadHealthy
			}
		} else {
			g.below = 0
		}
	case core.OverloadShedding:
		if shedOut {
			if g.below++; g.below >= g.opts.HysteresisTicks {
				if degradeOut {
					next = core.OverloadHealthy
				} else {
					next = core.OverloadDegraded
				}
			}
		} else {
			g.below = 0
		}
	}
	if next != g.cur {
		g.below = 0
		g.cur = next
		g.level.store(next)
	}
	return next
}
