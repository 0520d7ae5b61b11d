// Package netsim runs GoCast nodes (and baseline protocols) on the
// discrete-event simulator over a wide-area latency matrix, reproducing
// the methodology of the paper's evaluation: an event-driven simulation of
// message propagation, node failure, topology, and link latency, without
// packet-level detail.
package netsim

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gocast/internal/core"
	"gocast/internal/dtrace"
	"gocast/internal/fault"
	"gocast/internal/latency"
	"gocast/internal/metrics"
	"gocast/internal/sim"
)

// Observer sees every simulated transmission, letting experiments account
// traffic (e.g. per-underlay-link stress).
type Observer func(from, to core.NodeID, m core.Message)

// Options configures a simulated cluster.
type Options struct {
	// Nodes is the system size.
	Nodes int
	// Seed drives all randomness in the run.
	Seed int64
	// Config is the per-node protocol configuration.
	Config core.Config
	// Matrix provides pairwise latencies; synthesized from Seed when nil.
	// When Nodes exceeds the number of sites, multiple nodes share a site
	// (as in the paper, which had more nodes than measured DNS servers).
	Matrix *latency.Matrix
	// DetectionDelay is how long after a peer's death its overlay
	// neighbors get a connection-break notification (TCP reset model).
	DetectionDelay time.Duration
	// Observer, if set, sees every transmission.
	Observer Observer
	// Trace, if set, receives every node's telemetry records (deliveries,
	// sends, pulls, link/parent/root changes, ...; see dtrace.Kind).
	// Records of sampled messages carry Sampled (see internal/dtrace;
	// sampling is controlled by Config.TraceSampleEvery); a sink that
	// keeps only those in one dtrace.Buffer stitches exactly, since a
	// traced cluster runs on one thread and virtual time is globally
	// comparable.
	Trace func(dtrace.Span)
	// Shards requests conservative parallel execution: nodes are
	// partitioned into region shards along the latency matrix's
	// geographic clusters, each shard advances on its own event engine
	// within latency-bounded lookahead windows, and cross-shard sends are
	// injected at window barriers (DESIGN.md §15). Results are identical
	// to a sequential run at the same seed regardless of the shard count.
	// 0 or 1 runs sequentially. The effective count may be lower than
	// requested (few sites, or no positive inter-shard latency floor —
	// e.g. every node on one site — falls back to sequential); clusters
	// with an Observer or a Trace sink always run sequentially,
	// since those record from inside node callbacks and assume a single
	// thread. Admission caps and link faults are incompatible with
	// sharded execution (SetAdmission / SetFaults panic).
	Shards int
}

// Cluster is a simulated GoCast deployment.
type Cluster struct {
	// Engine is the control engine: the clock the driver schedules
	// against (injection streams, churn plans, failure timers). In
	// sequential runs it is also the node engine; in sharded runs node
	// events live on per-shard engines and control events fire only at
	// window barriers, while every engine's clock agrees whenever the
	// driver can observe it.
	Engine *sim.Engine
	Matrix *latency.Matrix

	// shards holds the per-shard execution state (engine, pools,
	// outboxes); sequential runs have exactly one, sharing Engine.
	// shardOf maps each node slot to its shard, fixed at creation from
	// the node's site. group coordinates parallel windows (nil when
	// sequential). keySeq issues each slot's canonical event keys; it is
	// never reset (not even by Restart) so keys stay globally unique.
	shards  []*simShard
	shardOf []int
	group   *sim.ShardGroup
	keySeq  []uint32
	// cachedSiteShard is the site→shard assignment from latency.Partition
	// (all zeros when sequential), kept for nodes added at runtime.
	cachedSiteShard []int

	opts   Options
	rng    *rand.Rand
	siteOf []int
	nodes  []*core.Node
	alive  []bool
	joined []time.Duration // when each node's current life entered the system
	// firstJoin is when the slot first entered the system, never reset by
	// Restart — the baseline for judging whether a restarted node caught
	// up on messages its dead life missed (RecoveryViolations).
	firstJoin []time.Duration
	detect    bool

	// Churn state. incar is each node's current incarnation (bumped on
	// Restart); gen counts lives so that timers armed by a dead past life
	// can never fire into the new one.
	incar    []uint32
	gen      []int
	restarts int

	// Delivery accounting. recv rows are appended only between windows
	// (Inject runs on the control clock); cells are written by the
	// receiving node's shard, one writer per cell. redelivered is atomic
	// because two shards may count duplicates concurrently.
	msgIndex    map[core.MessageID]int
	msgIDs      []core.MessageID
	injectTimes []time.Duration
	sources     []int
	recv        [][]time.Duration // [msg][node] delivery time, -1 = never
	redelivered atomic.Int64      // deliveries repeated across a node's lives

	// Admission control (see SetAdmission). inflight counts each node's
	// queued inbound transmissions per class; over-cap sends are shed at
	// the sender, mirroring the live mailbox's prioritized admission so
	// flood scenarios reproduce deterministically in simulation.
	admission AdmissionCaps
	inflight  [][core.NumClasses]int
	admShed   [core.NumClasses]int64

	// Link-fault state (see SetFaults); nil until faults are first set.
	faults *fault.State

	// Tree-repair accounting: when a node's parent becomes None, the
	// detach time is noted; the next re-attach records the repair latency.
	// detachedAt cells have one writer (the node's shard, or the fence);
	// the shared recorder needs the mutex because any shard may append.
	detachedAt []time.Duration
	repairs    *metrics.DelayRecorder
	repairMu   sync.Mutex
}

// simShard is one shard's execution state: its event engine, the
// free lists for the hot-path simulation records, and the outboxes
// buffering cross-shard sends until the next window barrier. Sequential
// clusters have exactly one shard whose engine is Cluster.Engine, so
// the hot path is the same code either way. Each engine is
// single-threaded, so plain slices suffice for the free lists:
// deliveryFree recycles the per-send delivery records (each with a
// prebuilt closure, so a send schedules without allocating); wrapFree
// recycles the env.After wrapper records that guard callbacks with the
// life check. msgFree recycles the wire structs handed to core via the
// MessagePool and ControlPool capabilities and released after delivery —
// a struct sent across shards is released into (and thereafter recycled
// by) the receiver's shard, which is safe because ownership transfers at
// a barrier.
type simShard struct {
	idx int
	eng *sim.Engine

	// outbox[d] buffers sends destined for shard d; drained into d's
	// engine at each barrier. Never touched for d == idx.
	outbox [][]crossEvent

	deliveryFree []*delivery
	wrapFree     []*timerWrap
	msgFree      [core.NumMsgKinds][]core.Message // by kind
	asked        [core.NumMsgKinds]bool           // kinds core has asked msgFree for
}

// crossEvent is one buffered cross-shard transmission: everything the
// destination shard needs to schedule the delivery under the same
// timestamp and canonical key the sender computed.
type crossEvent struct {
	at   time.Duration
	key  uint64
	from core.NodeID
	to   core.NodeID
	m    core.Message
}

// New builds a cluster; nodes are created but idle until Start.
func New(opts Options) *Cluster {
	if opts.Nodes <= 0 {
		panic("netsim: cluster needs at least one node")
	}
	if opts.DetectionDelay <= 0 {
		opts.DetectionDelay = time.Second
	}
	eng := sim.NewEngine(opts.Seed)
	mat := opts.Matrix
	if mat == nil {
		sites := opts.Nodes
		if sites > latency.KingSites {
			sites = latency.KingSites
		}
		mat = latency.Synthesize(sites, opts.Seed)
	}
	c := &Cluster{
		Engine:     eng,
		Matrix:     mat,
		opts:       opts,
		rng:        rand.New(rand.NewSource(opts.Seed ^ 0x5ca1ab1e)),
		siteOf:     make([]int, opts.Nodes),
		shardOf:    make([]int, opts.Nodes),
		keySeq:     make([]uint32, opts.Nodes),
		nodes:      make([]*core.Node, opts.Nodes),
		alive:      make([]bool, opts.Nodes),
		joined:     make([]time.Duration, opts.Nodes),
		firstJoin:  make([]time.Duration, opts.Nodes),
		incar:      make([]uint32, opts.Nodes),
		gen:        make([]int, opts.Nodes),
		detachedAt: make([]time.Duration, opts.Nodes),
		detect:     true,
		msgIndex:   make(map[core.MessageID]int),
		repairs:    metrics.NewDelayRecorder(),
	}
	c.buildShards()
	for i := 0; i < opts.Nodes; i++ {
		c.siteOf[i] = i % mat.Sites()
		c.shardOf[i] = c.siteShard()[c.siteOf[i]]
		c.alive[i] = true
		c.detachedAt[i] = -1
		c.nodes[i] = c.buildNode(i)
	}
	for _, n := range c.nodes {
		n.SetLandmarks(c.landmarkEntries())
	}
	return c
}

// buildShards partitions the latency matrix's sites and constructs the
// per-shard engines and the window coordinator. Requests that cannot be
// honored — one shard, observers that record from inside node callbacks,
// or a matrix with no positive inter-shard latency floor — fall back to
// a single shard sharing the control engine (plain sequential execution).
func (c *Cluster) buildShards() {
	want := c.opts.Shards
	if c.opts.Observer != nil || c.opts.Trace != nil {
		want = 1
	}
	var siteShard []int
	var minOut []time.Duration
	if want > 1 {
		// Node i sits on site i % Sites(): balance the shards by that.
		load := make([]int, c.Matrix.Sites())
		for i := 0; i < c.opts.Nodes; i++ {
			load[i%len(load)]++
		}
		siteShard, minOut = latency.Partition(c.Matrix, want, load)
	}
	if len(minOut) <= 1 {
		sh := &simShard{idx: 0, eng: c.Engine, outbox: make([][]crossEvent, 1)}
		c.shards = []*simShard{sh}
		c.cachedSiteShard = make([]int, c.Matrix.Sites())
		return
	}
	c.cachedSiteShard = siteShard
	engines := make([]*sim.Engine, len(minOut))
	c.shards = make([]*simShard, len(minOut))
	for s := range c.shards {
		engines[s] = sim.NewEngine(c.opts.Seed ^ int64(0x5aa5<<8|s))
		c.shards[s] = &simShard{idx: s, eng: engines[s], outbox: make([][]crossEvent, len(minOut))}
	}
	c.group = sim.NewShardGroup(c.Engine, engines, minOut, c.drainCross)
}

// siteShard returns the site→shard assignment chosen at construction.
func (c *Cluster) siteShard() []int { return c.cachedSiteShard }

// EffectiveShards returns how many shards the cluster actually runs
// (1 = sequential), which may be fewer than Options.Shards requested.
func (c *Cluster) EffectiveShards() int { return len(c.shards) }

// ExecutedEvents returns the total number of simulation events fired
// across the control engine and every shard engine.
func (c *Cluster) ExecutedEvents() uint64 {
	total := c.Engine.Executed()
	if c.group != nil {
		for _, sh := range c.shards {
			total += sh.eng.Executed()
		}
	}
	return total
}

// ShardEvents returns the events each shard engine has executed, in
// shard order; a sequential cluster has one entry, its only engine. The
// spread between entries is the partition's load balance.
func (c *Cluster) ShardEvents() []uint64 {
	out := make([]uint64, len(c.shards))
	for s, sh := range c.shards {
		out[s] = sh.eng.Executed()
	}
	return out
}

// ShardWindows returns how many parallel windows the sharded engine has
// run and the virtual time they covered (zero when sequential); see
// sim.ShardGroup.Windows.
func (c *Cluster) ShardWindows() (count uint64, covered time.Duration) {
	if c.group == nil {
		return 0, 0
	}
	return c.group.Windows()
}

// nextKey issues slot id's next canonical event key: slot-major, with a
// per-slot monotonic counter that survives restarts. Keys order
// same-instant events identically on every engine, which is what makes
// sharded results byte-identical to sequential ones (see sim.ScheduleKeyed).
// Only slot id's own shard (or the fence) draws keys for id, so the
// counters need no synchronization.
func (c *Cluster) nextKey(id core.NodeID) uint64 {
	c.keySeq[id]++
	return uint64(uint32(id)+1)<<32 | uint64(c.keySeq[id])
}

// drainCross injects every buffered cross-shard send into its
// destination shard's engine. The group calls it only at barriers, when
// all shard goroutines are parked, so it may touch every shard freely.
func (c *Cluster) drainCross() {
	for _, src := range c.shards {
		for dst, evs := range src.outbox {
			if len(evs) == 0 {
				continue
			}
			d := c.shards[dst]
			for i := range evs {
				ev := &evs[i]
				dl := d.getDelivery(c)
				dl.from, dl.to, dl.m = ev.from, ev.to, ev.m
				dl.cls, dl.counted = 0, false
				d.eng.ScheduleKeyed(ev.at, ev.key, dl.run)
				ev.m = nil
			}
			src.outbox[dst] = evs[:0]
		}
	}
}

// buildNode constructs a protocol instance for slot i with a fresh env of
// the slot's current generation and wires the delivery callback and the
// node observer. It does not start the node.
func (c *Cluster) buildNode(i int) *core.Node {
	sh := c.shards[c.shardOf[i]]
	e := &env{c: c, sh: sh, id: core.NodeID(i), gen: c.gen[i], rng: newBatchRand(c.rng.Int63())}
	n := core.New(core.NodeID(i), c.opts.Config, e)
	n.SetIncarnation(c.incar[i])
	idx := i
	n.OnDeliver(func(id core.MessageID, _ []byte, _ time.Duration) {
		c.recordDelivery(id, idx, sh.eng.Now())
	})
	n.SetObserver(&nodeObs{c: c, idx: idx})
	return n
}

// nodeObs is the observer netsim installs on every node: parent records
// feed the tree-repair accounting, and the optional Trace sink gets every
// record. Without a sink it asks the node for parent records only, so
// the node builds no other. The accounting writes only slot idx's cell
// and the locked recorder, so it is safe on any shard; the sink forces
// sequential execution.
type nodeObs struct {
	c   *Cluster
	idx int
}

func (o *nodeObs) Wants(k dtrace.Kind) bool {
	return k == dtrace.KindParent || o.c.opts.Trace != nil
}

func (o *nodeObs) Observe(s dtrace.Span) {
	if s.Kind == dtrace.KindParent {
		o.c.noteParentChange(o.idx, core.NodeID(s.From), s.End)
	}
	if o.c.opts.Trace != nil {
		o.c.opts.Trace(s)
	}
}

// landmarkEntries returns the landmark set (the first LandmarkCount slots)
// with each landmark's current incarnation.
func (c *Cluster) landmarkEntries() []core.Entry {
	lc := c.opts.Config.LandmarkCount
	if lc > len(c.nodes) {
		lc = len(c.nodes)
	}
	lms := make([]core.Entry, lc)
	for i := range lms {
		lms[i] = core.Entry{ID: core.NodeID(i), Inc: c.incar[i]}
	}
	return lms
}

// noteParentChange tracks tree-repair latency: the time from losing the
// parent (or restarting) to re-attaching anywhere. now is the clock of
// the shard the change happened on; detachedAt[i] has a single writer
// at any time, but the recorder is shared across shards.
func (c *Cluster) noteParentChange(i int, newParent core.NodeID, now time.Duration) {
	if newParent == core.None {
		if c.detachedAt[i] < 0 {
			c.detachedAt[i] = now
		}
		return
	}
	if c.detachedAt[i] >= 0 {
		c.repairMu.Lock()
		c.repairs.Add(now - c.detachedAt[i])
		c.repairMu.Unlock()
		c.detachedAt[i] = -1
	}
}

// Node returns the i-th node (for inspection; drive it only through the
// cluster to preserve determinism).
func (c *Cluster) Node(i int) *core.Node { return c.nodes[i] }

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Alive reports whether node i is alive.
func (c *Cluster) Alive(i int) bool { return c.alive[i] }

// AliveCount returns the number of live nodes.
func (c *Cluster) AliveCount() int {
	n := 0
	for _, a := range c.alive {
		if a {
			n++
		}
	}
	return n
}

// OneWay returns the simulated one-way latency between two nodes.
func (c *Cluster) OneWay(i, j int) time.Duration {
	return c.Matrix.OneWay(c.siteOf[i], c.siteOf[j])
}

// RTT returns the simulated round-trip time between two nodes.
func (c *Cluster) RTT(i, j int) time.Duration { return 2 * c.OneWay(i, j) }

// BootstrapMembership gives every node a uniformly random partial view of
// the given size (distinct entries, sampled without replacement), as the
// membership protocol would have established.
func (c *Cluster) BootstrapMembership(viewSize int) {
	n := len(c.nodes)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < n; i++ {
		// Partial Fisher-Yates: the first viewSize entries of perm become
		// a uniform sample without replacement.
		k := viewSize
		if k > n-1 {
			k = n - 1
		}
		taken := 0
		for pos := 0; taken < k && pos < n; pos++ {
			swap := pos + c.rng.Intn(n-pos)
			perm[pos], perm[swap] = perm[swap], perm[pos]
			if perm[pos] == i {
				continue
			}
			c.learn(i, perm[pos])
			taken++
		}
	}
}

func (c *Cluster) learn(i, j int) {
	c.nodes[i].SeedMembers([]core.Entry{{ID: core.NodeID(j)}})
}

// WireRandom creates the paper's initial topology: every node initiates
// `initiate` connections to distinct random nodes, classified as random
// links (the adaptation protocols then reshape the overlay). Average
// degree after wiring is 2*initiate.
func (c *Cluster) WireRandom(initiate int) {
	n := len(c.nodes)
	type pair struct{ a, b int }
	linked := make(map[pair]bool)
	for i := 0; i < n; i++ {
		// Bound retries so a small cluster that cannot satisfy the target
		// (initiate*n > C(n,2) pairs) wires what it can instead of spinning.
		retries := 4 * n
		for k := 0; k < initiate && retries > 0; k++ {
			j := c.rng.Intn(n)
			a, b := i, j
			if a > b {
				a, b = b, a
			}
			if i == j || linked[pair{a, b}] {
				k-- // retry
				retries--
				continue
			}
			linked[pair{a, b}] = true
			c.WireLink(i, j, core.Random)
		}
	}
}

// WireLink installs one overlay link directly at both endpoints.
func (c *Cluster) WireLink(i, j int, kind core.LinkKind) {
	rtt := c.RTT(i, j)
	c.nodes[i].AddNeighborDirect(core.Entry{ID: core.NodeID(j)}, kind, rtt)
	c.nodes[j].AddNeighborDirect(core.Entry{ID: core.NodeID(i)}, kind, rtt)
}

// Start designates node `root` as the tree root and starts every node.
func (c *Cluster) Start(root int) {
	c.nodes[root].BecomeRoot()
	for _, n := range c.nodes {
		n.Start()
	}
}

// Run advances the simulation by d. Sharded clusters run the window
// protocol; sequential ones drive the engine directly. Either way every
// engine's clock ends parked at the same instant and all events due in
// the interval have fired, so Run calls can be freely interleaved with
// driver calls (Inject, Kill, ...).
func (c *Cluster) Run(d time.Duration) {
	target := c.Engine.Now() + d
	if c.group != nil {
		c.group.Run(target)
		return
	}
	c.Engine.Run(target)
}

// Now returns the current simulated time.
func (c *Cluster) Now() time.Duration { return c.Engine.Now() }

// SetMaintenance toggles maintenance on every live node; the paper's
// stress tests disable all repair before killing nodes.
func (c *Cluster) SetMaintenance(on bool) {
	for i, n := range c.nodes {
		if c.alive[i] {
			n.SetMaintenance(on)
		}
	}
}

// SetDetection toggles connection-break notifications.
func (c *Cluster) SetDetection(on bool) { c.detect = on }

// AdmissionCaps bounds each node's in-flight inbound transmissions per
// message class; 0 leaves a class unbounded. It is the simulation mirror
// of the live mailbox's prioritized lanes: Background should carry the
// smallest cap so it sheds first under flood, Critical the largest (or
// none) so tree traffic survives.
type AdmissionCaps struct {
	Critical   int
	Repair     int
	Background int
}

func (a AdmissionCaps) capFor(cls core.Class) int {
	switch cls {
	case core.ClassCritical:
		return a.Critical
	case core.ClassRepair:
		return a.Repair
	default:
		return a.Background
	}
}

// SetAdmission installs per-node per-class in-flight caps; the zero value
// disables admission control (the default). Over-cap sends are shed at
// the sender and counted in AdmissionSheds.
func (c *Cluster) SetAdmission(caps AdmissionCaps) {
	if len(c.shards) > 1 && caps != (AdmissionCaps{}) {
		panic("netsim: admission caps require sequential execution (Options.Shards <= 1)")
	}
	c.admission = caps
	if c.inflight == nil && caps != (AdmissionCaps{}) {
		c.inflight = make([][core.NumClasses]int, len(c.nodes))
	}
}

// SetFaults installs spec as the active link-fault state; nil or an
// empty spec clears every fault. Callers (the scenario engine) schedule
// SetFaults calls on the simulation clock to phase faults in and out,
// which keeps every fault decision on the deterministic event loop.
func (c *Cluster) SetFaults(spec *fault.Spec) {
	if c.faults == nil {
		c.faults = new(fault.State)
	}
	c.faults.Set(spec)
	if c.faults.Active() && len(c.shards) > 1 {
		panic("netsim: link faults require sequential execution (Options.Shards <= 1)")
	}
}

// FaultStats returns the cumulative fault-model counters.
func (c *Cluster) FaultStats() fault.Stats {
	if c.faults == nil {
		return fault.Stats{}
	}
	return c.faults.Stats()
}

// AdmissionSheds returns how many transmissions each class has shed to
// admission caps since the cluster was built.
func (c *Cluster) AdmissionSheds() map[core.Class]int64 {
	out := make(map[core.Class]int64, core.NumClasses)
	for cls := core.Class(0); cls < core.NumClasses; cls++ {
		out[cls] = c.admShed[cls]
	}
	return out
}

// env adapts the cluster to core.Env for one life of one node. gen pins
// the life: after a Restart the slot's generation advances, so timers and
// sends armed by the dead past life are silently discarded. sh is the
// node's shard; all of the node's events, timers, and pooled records
// live there.
type env struct {
	c   *Cluster
	sh  *simShard
	id  core.NodeID
	gen int
	rng batchRand
}

// batchRand is a node's random number stream: a math/rand source read
// eight values at a time into a buffer that sits inside the env. The
// source's state is 4.9 KB per node and a draw touches two words of it far
// apart, so with hundreds of nodes interleaving draws most of them missed
// the cache; now one draw in eight does. Intn returns exactly what
// (*rand.Rand).Intn returns over the same source.
type batchRand struct {
	src  rand.Source
	next int // index of the next unread value in buf
	buf  [8]int64
}

func newBatchRand(seed int64) batchRand {
	r := batchRand{src: rand.NewSource(seed)}
	r.next = len(r.buf)
	return r
}

func (r *batchRand) int63() int64 {
	if r.next == len(r.buf) {
		for i := range r.buf {
			r.buf[i] = r.src.Int63()
		}
		r.next = 0
	}
	v := r.buf[r.next]
	r.next++
	return v
}

// Intn mirrors (*rand.Rand).Intn, Int31n and Int63n for n > 0.
func (r *batchRand) Intn(n int) int {
	if n <= 1<<31-1 {
		n := int32(n)
		if n&(n-1) == 0 {
			return int(int32(r.int63()>>32) & (n - 1))
		}
		max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
		v := int32(r.int63() >> 32)
		for v > max {
			v = int32(r.int63() >> 32)
		}
		return int(v % n)
	}
	n64 := int64(n)
	if n64&(n64-1) == 0 {
		return int(r.int63() & (n64 - 1))
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n64))
	v := r.int63()
	for v > max {
		v = r.int63()
	}
	return int(v % n64)
}

var (
	_ core.Env         = (*env)(nil)
	_ core.MessagePool = (*env)(nil)
	_ core.ControlPool = (*env)(nil)
)

// timerWrap is one pooled env.After record: run is built once and guards
// the callback with the life check, so arming a timer in steady state
// allocates nothing. A record recycles itself when it fires; a record
// whose timer is cancelled is simply dropped (the engine releases the run
// closure, and the record is garbage-collected).
type timerWrap struct {
	env *env
	fn  func()
	run func()
}

func (sh *simShard) getWrap() *timerWrap {
	if n := len(sh.wrapFree) - 1; n >= 0 {
		w := sh.wrapFree[n]
		sh.wrapFree = sh.wrapFree[:n]
		return w
	}
	w := &timerWrap{}
	w.run = func() {
		e, fn := w.env, w.fn
		w.env, w.fn = nil, nil
		sh.wrapFree = append(sh.wrapFree, w)
		if e.live() {
			fn()
		}
	}
	return w
}

// delivery is one pooled in-flight transmission: run is built once and
// rewritten fields make scheduling a send allocation-free.
type delivery struct {
	c       *Cluster
	from    core.NodeID
	to      core.NodeID
	m       core.Message
	cls     core.Class
	counted bool // holds an inflight admission slot for (to, cls)
	run     func()
}

func (sh *simShard) getDelivery(c *Cluster) *delivery {
	if n := len(sh.deliveryFree) - 1; n >= 0 {
		d := sh.deliveryFree[n]
		sh.deliveryFree = sh.deliveryFree[:n]
		return d
	}
	d := &delivery{c: c}
	d.run = func() {
		from, to, m := d.from, d.to, d.m
		d.m = nil
		if d.counted {
			d.counted = false
			c.inflight[to][d.cls]--
		}
		sh.deliveryFree = append(sh.deliveryFree, d)
		// Delivered to whichever life currently owns the address; the
		// receiver's stale-incarnation guards reject dead-past-life traffic.
		if c.alive[to] {
			c.nodes[to].HandleMessage(from, m)
		}
		sh.releaseMsg(m)
	}
	return d
}

// Wire-struct pools: one free list per message kind. Get and Reuse hand
// core a released struct; releaseMsg returns it after the receiver ran
// (or the transmission was dropped). Receivers retain nothing from these
// structs except payload slices and Entry values, both of which live
// outside the pooled records, so recycling is safe.

// reuse pops a released struct of kind k, or returns nil.
func (sh *simShard) reuse(k core.MsgKind) core.Message {
	sh.asked[k] = true
	free := sh.msgFree[k]
	n := len(free) - 1
	if n < 0 {
		return nil
	}
	m := free[n]
	free[n] = nil
	sh.msgFree[k] = free[:n]
	return m
}

// pooled returns a released struct of P's kind, or a new one.
func pooled[T any, P interface {
	*T
	core.Message
}](sh *simShard) P {
	if m := sh.reuse(P(nil).Kind()); m != nil {
		return m.(P)
	}
	return new(T)
}

func (e *env) GetGossip() *core.Gossip           { return pooled[core.Gossip](e.sh) }
func (e *env) GetMulticast() *core.Multicast     { return pooled[core.Multicast](e.sh) }
func (e *env) GetPullRequest() *core.PullRequest { return pooled[core.PullRequest](e.sh) }
func (e *env) Reuse(k core.MsgKind) core.Message { return e.sh.reuse(k) }

// releaseMsg returns a delivered wire struct to this shard's free list
// for its kind. Only the kinds core has asked for are kept: core builds
// every struct of such a kind through the MessagePool or ControlPool
// capability, so each free list drains as fast as it fills, and a kind
// core allocates itself is left to the garbage collector. A struct that
// crossed shards is released into the receiving shard's pool — safe,
// since it changed owners at a barrier.
func (sh *simShard) releaseMsg(m core.Message) {
	k := m.Kind()
	if !sh.asked[k] {
		return
	}
	switch v := m.(type) {
	case *core.Gossip:
		v.IDs = v.IDs[:0]
		v.Members = v.Members[:0]
		v.Obits = v.Obits[:0]
		v.Syms = v.Syms[:0]
		v.Degrees = core.Degrees{}
	case *core.Multicast:
		*v = core.Multicast{}
	case *core.PullRequest:
		v.IDs = v.IDs[:0]
	}
	sh.msgFree[k] = append(sh.msgFree[k], m)
}

// live reports whether this env's life is still the slot's current one.
func (e *env) live() bool {
	id := int(e.id)
	return e.c.alive[id] && e.c.gen[id] == e.gen
}

func (e *env) Now() time.Duration { return e.sh.eng.Now() }

func (e *env) Rand(n int) int {
	if n <= 0 {
		return 0
	}
	return e.rng.Intn(n)
}

func (e *env) Learn(core.Entry) {}

func (e *env) After(d time.Duration, fn func()) core.Timer {
	w := e.sh.getWrap()
	w.env = e
	w.fn = fn
	h := e.sh.eng.ScheduleKeyed(e.sh.eng.Now()+d, e.c.nextKey(e.id), w.run)
	return core.MakeTimer(e.sh.eng, uint64(h))
}

func (e *env) Send(to core.NodeID, m core.Message) { e.c.send(e, to, m, true) }

func (e *env) SendDatagram(to core.NodeID, m core.Message) { e.c.send(e, to, m, false) }

// send takes ownership of m: core hands each pooled wire struct to exactly
// one Send call, so every path out of here — dropped or delivered — must
// end in releaseMsg. It runs on the sender's shard; deliveries within
// the shard are scheduled directly, deliveries to another shard are
// buffered in the outbox and injected at the next window barrier
// (always in the future: the arrival lags by at least the inter-shard
// latency floor that bounds the window).
func (c *Cluster) send(from *env, to core.NodeID, m core.Message, reliable bool) {
	sh := from.sh
	if int(to) < 0 || int(to) >= len(c.nodes) || from.id == to || !from.live() {
		sh.releaseMsg(m)
		return
	}
	if c.opts.Observer != nil {
		c.opts.Observer(from.id, to, m)
	}
	if !c.alive[to] {
		if reliable && c.detect {
			// The sender's TCP connection to the dead peer resets — unless
			// the peer restarts first, in which case the new life's
			// connection supersedes the broken one. The reset is the
			// sender's own event: it stays on the sender's shard and
			// carries the sender's next canonical key.
			toGen := c.gen[to]
			sh.eng.ScheduleKeyed(sh.eng.Now()+c.opts.DetectionDelay, c.nextKey(from.id), func() {
				if from.live() && c.gen[to] == toGen {
					c.nodes[from.id].PeerDown(to)
				}
			})
		}
		sh.releaseMsg(m)
		return
	}
	// Link faults (partitions, loss, delay, bandwidth queueing). Blocked
	// and dropped transmissions are silent blackholes: detection is the
	// protocol's job, recovery gossip's. Sequential-only (SetFaults
	// panics on sharded clusters).
	var extra time.Duration
	if c.faults != nil {
		var ok bool
		if extra, ok = c.faults.Judge(int(from.id), int(to), m.WireSize(), sh.eng.Now()); !ok {
			sh.releaseMsg(m)
			return
		}
	}
	counted := false
	var cls core.Class
	if c.inflight != nil {
		cls = core.ClassOf(m)
		if cap := c.admission.capFor(cls); cap > 0 {
			if c.inflight[to][cls] >= cap {
				c.admShed[cls]++
				sh.releaseMsg(m)
				return
			}
			c.inflight[to][cls]++
			counted = true
		}
	}
	at := sh.eng.Now() + c.OneWay(int(from.id), int(to)) + extra
	key := c.nextKey(from.id)
	if dst := c.shardOf[to]; dst != sh.idx {
		sh.outbox[dst] = append(sh.outbox[dst], crossEvent{at: at, key: key, from: from.id, to: to, m: m})
		return
	}
	dl := sh.getDelivery(c)
	dl.from, dl.to, dl.m = from.id, to, m
	dl.cls, dl.counted = cls, counted
	sh.eng.ScheduleKeyed(at, key, dl.run)
}
