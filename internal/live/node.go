package live

import (
	"errors"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gocast/internal/core"
	"gocast/internal/dtrace"
	"gocast/internal/obs"
)

// ErrStopped reports an API call against a node after Close or Kill.
var ErrStopped = errors.New("live: node stopped")

// NodeOptions configures a live node.
type NodeOptions struct {
	// ID must be unique across the group.
	ID core.NodeID
	// Config is the protocol configuration; zero-ish values are repaired
	// by core.
	Config core.Config
	// Transport carries the node's traffic. The runner takes ownership
	// and closes it on Close.
	Transport Transport
	// Seed drives the node's local randomness (timer phases, sampling).
	Seed int64
	// Incarnation is the node's starting incarnation number. A process
	// rejoining under an ID it used in a previous life must pass a higher
	// value than it ever used before, or the group will treat its traffic
	// as a dead past life's.
	Incarnation uint32
	// OnDeliver receives each multicast exactly once. Called on the
	// node's event loop: do not block, and do not call the node's own
	// methods from inside it (hand work to another goroutine instead) —
	// they wait on the same loop and would deadlock.
	OnDeliver core.DeliverFunc
	// Registry receives the node's metrics. Nil creates a private registry
	// (retrievable via Registry()), so the stats accessors always work.
	// Share one registry across nodes only in single-node processes:
	// metric names carry no node label, so two nodes sharing a registry
	// would overwrite each other's mirrors.
	Registry *obs.Registry
	// TraceCapacity sizes the protocol event ring (sends, deliveries,
	// pulls, link, parent and root changes, as dtrace records): 0 selects
	// the default (1024 events), negative disables it entirely.
	TraceCapacity int
	// TraceSample records every Nth protocol event in the trace ring
	// (0 and 1 record all). Latency histograms are never sampled.
	TraceSample int
	// SpanCapacity sizes the dissemination trace span ring (see
	// internal/dtrace): 0 selects the dtrace default (4096 spans),
	// negative disables span recording entirely. Spans are only produced
	// for sampled messages (Config.TraceSampleEvery), so the ring stays
	// empty unless sampling is on somewhere in the group.
	SpanCapacity int
	// Overload tunes the prioritized mailbox, the degradation governor,
	// and the memory budget (see OverloadOptions). The zero value selects
	// the defaults.
	Overload OverloadOptions
}

// Node hosts one GoCast protocol instance on real time. All protocol work
// happens on a single mailbox goroutine; the exported methods are safe for
// concurrent use. After Close or Kill, live accessors (Degree, Parent, ...)
// return zero values — Stopped reports that state, and the internal call
// path yields ErrStopped — and never block; the stats accessors instead
// keep returning the final pre-stop snapshot frozen in the registry.
type Node struct {
	opts  NodeOptions
	coreN *core.Node
	env   *liveEnv

	mb      *mailbox
	gov     *governor
	qp      queuePressurer // transport queue occupancy source, nil if none
	stopped chan struct{}
	once    sync.Once

	// Panic containment: set when a recovered event-loop panic has
	// occurred (Health turns unhealthy until restart).
	panicked atomic.Bool

	// Observability surfaces (see obs.go). reg is never nil; tbuf is nil
	// when tracing is disabled, sbuf when span recording is disabled.
	// lastStats/lastStatus cache the most recent collect so stats stay
	// readable after Close/Kill.
	reg        *obs.Registry
	tbuf       *dtrace.Buffer
	sbuf       *dtrace.Buffer
	obsMu      sync.Mutex
	lastStats  core.Counters
	lastStatus StatusSnapshot
	oldestAsm  time.Duration // age of the oldest in-progress FEC assembly at last collect

	// Overload metric handles (captured in setupObs so the shed path is
	// allocation-free) and the rate limiter for the shed log line.
	mbDropped   *obs.Counter
	mbShed      [core.NumClasses]*obs.Counter
	loopPanics  *obs.Counter
	pubRejected *obs.Counter
	ovState     *obs.Gauge
	ovTrans     *obs.Counter
	lastShedLog atomic.Int64
}

// NewNode builds and starts a live node. It is immediately ready to
// Join a group (or to be joined, if it is the first).
func NewNode(opts NodeOptions) *Node {
	opts.Overload = opts.Overload.withDefaults()
	n := &Node{
		opts:    opts,
		stopped: make(chan struct{}),
	}
	n.mb = newMailbox([core.NumClasses]int{
		core.ClassCritical:   opts.Overload.MailboxCritical,
		core.ClassRepair:     opts.Overload.MailboxRepair,
		core.ClassBackground: opts.Overload.MailboxBackground,
	})
	n.gov = &governor{opts: opts.Overload}
	env := &liveEnv{
		n:     n,
		start: time.Now(),
		rng:   rand.New(rand.NewSource(opts.Seed ^ int64(opts.ID)<<20)),
		addrs: make(map[core.NodeID]string),
	}
	n.env = env
	n.coreN = core.New(opts.ID, opts.Config, env)
	n.coreN.SetAddr(opts.Transport.Addr())
	n.coreN.SetIncarnation(opts.Incarnation)
	if opts.OnDeliver != nil {
		n.coreN.OnDeliver(opts.OnDeliver)
	}
	// Unwrap fault-injection layers so the underlying MemTransport still
	// learns its owning node ID, and so the governor finds the transport's
	// queue-pressure surface regardless of wrapping.
	inner := opts.Transport
	for {
		ft, ok := inner.(*FaultTransport)
		if !ok {
			break
		}
		inner = ft.Inner()
	}
	if mt, ok := inner.(*MemTransport); ok {
		mt.SetFrom(opts.ID)
	}
	if qp, ok := inner.(queuePressurer); ok {
		n.qp = qp
	}
	n.setupObs()
	opts.Transport.SetHandlers(
		func(from core.NodeID, m core.Message) {
			// Inbound work is admitted under its message class: Critical
			// traffic blocks the transport's read path when the lane is
			// full (backpressure propagates to the sender), Repair and
			// Background traffic is shed instead.
			cls := core.ClassOf(m)
			n.enqueue(cls, cls == core.ClassCritical, func() {
				n.coreN.HandleMessage(from, m)
			})
		},
		func(peer core.NodeID) {
			// Failure notifications may originate from the event loop
			// itself (a send hitting a dead peer); never block on the
			// mailbox or the loop deadlocks. A dropped notification is
			// harmless: the keepalive timeout catches the failure.
			n.tryPost(func() { n.coreN.PeerDown(peer) })
		},
	)
	if pn, ok := inner.(pressureNotifier); ok {
		// A queue crossing its watermark kicks an immediate evaluation so
		// Shedding engages without waiting for the periodic tick.
		pn.SetPressureHandler(func() { n.tryPost(n.govEval) })
	}
	go n.loop()
	n.post(func() { n.coreN.Start() })
	n.armGovernor()
	return n
}

// ID returns the node's identifier.
func (n *Node) ID() core.NodeID { return n.opts.ID }

// Addr returns the node's transport address.
func (n *Node) Addr() string { return n.opts.Transport.Addr() }

// Entry returns the node's contact entry for bootstrapping others.
func (n *Node) Entry() core.Entry {
	return core.Entry{ID: n.opts.ID, Inc: n.opts.Incarnation, Addr: n.Addr()}
}

// Incarnation returns the node's incarnation number.
func (n *Node) Incarnation() uint32 { return n.opts.Incarnation }

// BecomeRoot designates this node as the initial tree root.
func (n *Node) BecomeRoot() {
	n.call(func() { n.coreN.BecomeRoot() })
}

// Join bootstraps through a node already in the group.
func (n *Node) Join(contact core.Entry) {
	n.call(func() { n.coreN.Join(contact) })
}

// SetLandmarks installs the latency-estimation landmark set.
func (n *Node) SetLandmarks(ls []core.Entry) {
	n.call(func() { n.coreN.SetLandmarks(ls) })
}

// Multicast injects a message into the group and returns its ID. On a
// stopped node nothing is sent and the zero MessageID is returned; while
// the node is Shedding the publish is rejected (also returning the zero
// ID). Use Publish to distinguish those outcomes.
func (n *Node) Multicast(payload []byte) core.MessageID {
	id, _ := n.Publish(payload)
	return id
}

// Publish injects a message into the group and returns its ID. It returns
// ErrOverloaded (and sends nothing) while the node is in the Shedding
// state — the caller should back off and retry — and ErrStopped after
// Close/Kill.
func (n *Node) Publish(payload []byte) (core.MessageID, error) {
	var id core.MessageID
	if n.gov.level.load() == core.OverloadShedding {
		n.pubRejected.Inc()
		return id, ErrOverloaded
	}
	if err := n.call(func() { id = n.coreN.Multicast(payload) }); err != nil {
		return id, err
	}
	return id, nil
}

// Overload returns the node's current degradation level.
func (n *Node) Overload() core.OverloadLevel { return n.gov.level.load() }

// OverloadStats snapshots the overload-protection counters (sheds per
// class, publish rejections, state transitions) in the same map shape as
// TransportStats.
func (n *Node) OverloadStats() map[string]int64 { return n.statsView("overload") }

// Degree returns the node's current overlay degree.
func (n *Node) Degree() int {
	var d int
	n.call(func() { d = n.coreN.Degree() })
	return d
}

// Neighbors snapshots the node's overlay links.
func (n *Node) Neighbors() []core.NeighborInfo {
	var out []core.NeighborInfo
	n.call(func() { out = n.coreN.Neighbors() })
	return out
}

// Root returns the node's view of the tree root.
func (n *Node) Root() core.NodeID {
	var r core.NodeID
	n.call(func() { r = n.coreN.Root() })
	return r
}

// Parent returns the node's tree parent.
func (n *Node) Parent() core.NodeID {
	var p core.NodeID
	n.call(func() { p = n.coreN.Parent() })
	return p
}

// TreeNeighbors snapshots the node's tree links (parent plus children).
func (n *Node) TreeNeighbors() []core.NodeID {
	var out []core.NodeID
	n.call(func() { out = n.coreN.TreeNeighbors() })
	return out
}

// Stats snapshots the node's protocol counters. After Close/Kill it
// returns the final pre-stop snapshot instead of zeros.
func (n *Node) Stats() core.Counters {
	n.collect()
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	return n.lastStats
}

// TransportStats snapshots the transport's counters, if the transport
// exposes them (TCPTransport and FaultTransport do); otherwise nil. It
// remains available after the node stops.
func (n *Node) TransportStats() map[string]int64 {
	out := n.statsView("transport")
	if len(out) == 0 {
		return nil
	}
	return out
}

// ChurnStats snapshots the node's churn-resilience counters in the same
// map shape as TransportStats, for /stats-style surfacing.
func (n *Node) ChurnStats() map[string]int64 { return n.statsView("churn") }

// SyncStats snapshots the anti-entropy sync and pull-miss counters in the
// same map shape as TransportStats, for /stats-style surfacing.
func (n *Node) SyncStats() map[string]int64 { return n.statsView("sync") }

// StoreStats snapshots the message store's occupancy and activity counters
// (puts, evictions, reclaims, ...).
func (n *Node) StoreStats() map[string]int64 { return n.statsView("store") }

// Spans snapshots the node's dissemination trace span ring in record
// order, or nil when span recording was disabled with a negative
// NodeOptions.SpanCapacity. Safe for concurrent use; feed the result
// (merged across nodes) to dtrace.Stitch.
func (n *Node) Spans() []dtrace.Span {
	if n.sbuf == nil {
		return nil
	}
	return n.sbuf.Snapshot()
}

// Seen reports whether the node has received the message.
func (n *Node) Seen(id core.MessageID) bool {
	var ok bool
	n.call(func() { ok = n.coreN.Seen(id) })
	return ok
}

// Close leaves the group gracefully and stops the node.
func (n *Node) Close() {
	n.once.Do(func() {
		n.call(func() { n.coreN.Leave() })
		n.collect() // freeze the final counters in the registry
		close(n.stopped)
		n.mb.stop()
		_ = n.opts.Transport.Close()
	})
}

// Kill stops the node abruptly without notifying anyone (for failure
// testing).
func (n *Node) Kill() {
	n.once.Do(func() {
		n.call(func() { n.coreN.Stop() })
		n.collect() // freeze the final counters in the registry
		close(n.stopped)
		n.mb.stop()
		_ = n.opts.Transport.Close()
	})
}

// enqueue admits fn to the mailbox under class cls, counting and
// rate-limited-logging sheds. It reports whether the work was admitted.
func (n *Node) enqueue(cls core.Class, wait bool, fn func()) bool {
	switch n.mb.push(cls, fn, wait) {
	case admitOK:
		return true
	case admitShed:
		n.noteMailboxShed(cls)
		return false
	default:
		return false
	}
}

// noteMailboxShed accounts one shed unit of class cls and emits the
// rate-limited overload log line.
func (n *Node) noteMailboxShed(cls core.Class) {
	n.mbDropped.Inc()
	n.mbShed[cls].Inc()
	now := time.Now().UnixNano()
	last := n.lastShedLog.Load()
	if now-last >= int64(shedLogInterval) && n.lastShedLog.CompareAndSwap(last, now) {
		n.opts.Overload.Logf("live: node %d: mailbox shedding (dropped=%d critical=%d repair=%d background=%d)",
			n.opts.ID, n.mbDropped.Value(),
			n.mbShed[core.ClassCritical].Value(), n.mbShed[core.ClassRepair].Value(),
			n.mbShed[core.ClassBackground].Value())
	}
}

// post enqueues Critical work for the event loop, blocking while the lane
// is full; it drops work once stopped.
func (n *Node) post(fn func()) {
	n.enqueue(core.ClassCritical, true, fn)
}

// tryPost enqueues Critical work without ever blocking, dropping it if
// the lane is full or the node stopped.
func (n *Node) tryPost(fn func()) {
	n.enqueue(core.ClassCritical, false, fn)
}

// call runs fn on the event loop and waits for it. After Close or Kill it
// returns ErrStopped without running fn (best effort: a call already
// queued when the node stops may still execute during the stop drain, in
// which case nil is returned). Public accessors built on call therefore
// return their documented zero values once the node has stopped.
func (n *Node) call(fn func()) error {
	select {
	case <-n.stopped:
		return ErrStopped
	default:
	}
	done := make(chan struct{})
	if !n.enqueue(core.ClassCritical, true, func() {
		defer close(done)
		fn()
	}) {
		return ErrStopped
	}
	select {
	case <-done:
		return nil
	case <-n.stopped:
		// The stop drain may still run the queued fn; report whichever
		// outcome is already decided without blocking.
		select {
		case <-done:
			return nil
		default:
			return ErrStopped
		}
	}
}

// Stopped reports whether Close or Kill has been called. API calls on a
// stopped node return zero values (internally ErrStopped).
func (n *Node) Stopped() bool {
	select {
	case <-n.stopped:
		return true
	default:
		return false
	}
}

func (n *Node) loop() {
	for {
		select {
		case <-n.stopped:
			// Drain whatever was queued so callers blocked in call()
			// observe their closure executed or the stop.
			for {
				fn, ok := n.mb.pop()
				if !ok {
					return
				}
				n.runSafe(fn)
			}
		case <-n.mb.wake:
			for {
				fn, ok := n.mb.pop()
				if !ok {
					break
				}
				n.runSafe(fn)
			}
		}
	}
}

// runSafe executes one unit of event-loop work, containing panics: a
// panicking callback (OnDeliver, a protocol bug) is counted, logged with
// its stack, and marks the node unhealthy — without killing the process
// or the loop.
func (n *Node) runSafe(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			n.panicked.Store(true)
			n.loopPanics.Inc()
			n.opts.Overload.Logf("live: node %d: event loop panic recovered: %v\n%s",
				n.opts.ID, r, debug.Stack())
		}
	}()
	fn()
}

// armGovernor schedules the periodic overload evaluation. The timer
// goroutine blocks on the Critical lane like any other poster, so under
// saturation evaluations are paced by the loop rather than piling up.
func (n *Node) armGovernor() {
	time.AfterFunc(n.opts.Overload.EvalInterval, func() {
		if n.Stopped() {
			return
		}
		n.post(n.govEval)
		if n.Stopped() {
			return
		}
		n.armGovernor()
	})
}

// govEval runs one governor evaluation on the event loop: sample queue
// occupancy and budget pressure, advance the state machine, and apply any
// transition to the core node and the metrics.
func (n *Node) govEval() {
	crit, worst := n.mb.pressure()
	var queuedBytes int64
	if n.qp != nil {
		p := n.qp.QueuePressure()
		if p.Critical > crit {
			crit = p.Critical
		}
		if p.Worst > worst {
			worst = p.Worst
		}
		queuedBytes = p.QueuedBytes
	}
	shedNow := n.mb.shedTotal()
	shedDelta := shedNow - n.gov.lastShed
	n.gov.lastShed = shedNow
	var memFrac float64
	if b := n.opts.Overload.MemBudget; b > 0 {
		memFrac = float64(n.coreN.Store().Bytes()+queuedBytes) / float64(b)
	}
	was := n.gov.cur
	now := n.gov.step(crit, worst, memFrac, shedDelta)
	if now != was {
		n.ovState.Set(int64(now))
		n.ovTrans.Inc()
		n.coreN.SetOverload(now)
		n.opts.Overload.Logf("live: node %d: overload %s -> %s (critical=%.2f worst=%.2f mem=%.2f shed=%d)",
			n.opts.ID, was, now, crit, worst, memFrac, shedDelta)
	}
}

// liveEnv adapts real time and the transport to core.Env. All methods are
// invoked from the node's event loop.
type liveEnv struct {
	n     *Node
	start time.Time
	rng   *rand.Rand
	addrs map[core.NodeID]string
}

var _ core.Env = (*liveEnv)(nil)

func (e *liveEnv) Now() time.Duration { return time.Since(e.start) }

func (e *liveEnv) Rand(n int) int {
	if n <= 0 {
		return 0
	}
	return e.rng.Intn(n)
}

func (e *liveEnv) Learn(entry core.Entry) {
	if entry.Addr != "" {
		e.addrs[entry.ID] = entry.Addr
	}
}

func (e *liveEnv) Send(to core.NodeID, m core.Message) {
	if addr, ok := e.addrs[to]; ok {
		e.n.opts.Transport.Send(addr, to, m)
	}
}

func (e *liveEnv) SendDatagram(to core.NodeID, m core.Message) {
	if addr, ok := e.addrs[to]; ok {
		e.n.opts.Transport.SendDatagram(addr, to, m)
	}
}

func (e *liveEnv) After(d time.Duration, fn func()) core.Timer {
	t := &liveTimer{}
	t.t = time.AfterFunc(d, func() {
		e.n.post(func() {
			if !t.stopped.Load() {
				fn()
			}
		})
	})
	return core.MakeTimer(t, 0)
}

type liveTimer struct {
	t       *time.Timer
	stopped atomic.Bool
}

// CancelTimer makes *liveTimer a core.TimerCanceller; the id is unused
// because each wall-clock timer has its own canceller.
func (t *liveTimer) CancelTimer(uint64) bool {
	t.stopped.Store(true)
	return t.t.Stop()
}
