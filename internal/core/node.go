package core

import (
	"math"
	"time"

	"gocast/internal/fec"
	"gocast/internal/store"
)

// DeliverFunc is invoked exactly once per multicast message a node
// receives. age is the estimated time since the message was injected.
type DeliverFunc func(id MessageID, payload []byte, age time.Duration)

// Node is a single GoCast protocol participant. It is not safe for
// concurrent use: the Env must serialize all callbacks and API calls onto
// one logical thread (the simulator's event loop, or the live runtime's
// per-node mailbox goroutine).
type Node struct {
	id   NodeID
	self Entry
	env  Env

	running     bool
	maintenance bool
	// overload is the node's degradation level (set by the substrate's
	// governor); Degraded and Shedding stretch the periodic gossip and
	// sync intervals by cfg.DegradedIntervalScale.
	overload OverloadLevel

	// Partial membership view (Section 2.2.1): dense table scanned
	// directly for sampling and round-robin candidate selection.
	members memberTable
	scanIdx int
	// obits quarantines dead or departed incarnations so stale in-flight
	// gossip cannot resurrect them (see membership.go).
	obits idTable[obitRecord]

	// Measured RTT cache in nanoseconds (below pingTimeout, so 32 bits
	// suffice) and this node's landmark vector (triangulated estimation).
	rtt     idTable[uint32]
	landVec []uint16 // my RTT to each landmark, ms; 0 = unmeasured
	// pings holds the outstanding pings in send (= nonce) order.
	pings     []pingCtx
	pingNonce uint32
	// lastPong remembers when each member last answered a ping, so a stale
	// ping lost to a transient fault does not evict a member that has since
	// proven alive (see expirePings).
	lastPong idTable[time.Duration]

	// Overlay neighbors (in link-creation order) and in-flight maintenance
	// operations.
	neighbors  neighborList
	pendingAdd idTable[addCtx]
	rebalance  *rebalanceCtx
	// degCache caches degrees(); degCacheOK is cleared whenever the
	// neighbor set or a nearby link's RTT changes.
	degCache   Degrees
	degCacheOK bool
	// selfLm caches the landmark vector handed out in selfEntry; it is
	// reset to nil whenever landVec changes.
	selfLm *LandmarkVec

	// Neighbor-slot allocation for the per-message bitmasks (see
	// dissem.go). slotUsed marks slots taken by live or retired holders;
	// liveMask is the OR of current neighbors' slot bits; retiredSlots
	// parks a removed neighbor's slot with its bits intact so a re-add
	// still knows what was announced to that peer.
	slotUsed     uint64
	liveMask     uint64
	retiredSlots idTable[uint8]

	// The fields above are the overlay state that the membership merge
	// and the gossip and maintenance rounds touch on nearly every event;
	// the configuration and the dissemination, sync and tree state follow,
	// so that the hot fields share as few cache lines as possible.
	cfg Config
	// First-pass candidate list sorted by estimated latency; nil until
	// built, emptied as candidates are probed.
	estimated []NodeID
	// landmarks is the installed landmark set.
	landmarks []Entry

	// Dissemination state (Section 2.1). Payload buffering, retention,
	// and reclamation are delegated to the store; seen keeps the
	// per-neighbor gossip bookkeeping in lockstep with it.
	store     *store.Memory
	seen      map[uint64]*msgState  // keyed by pid(MessageID)
	pending   map[uint64]*pullState // keyed by pid(MessageID)
	recent    []MessageID
	nextSeq   uint32
	gossipIdx int
	// assembling counts coopcast messages with an in-progress (incomplete,
	// not failed) symbol assembly, maintained at symState transitions so
	// the gauge costs nothing to read.
	assembling int
	// eagerAdverts counts symbol adverts sent at once, outside the gossip
	// round (see EagerAdverts).
	eagerAdverts int64

	// Anti-entropy sync state: round-robin cursor over neighbors and the
	// last time a sync was initiated toward each peer (rate limit for the
	// event-triggered rounds).
	syncIdx    int
	lastSyncTo idTable[time.Duration]
	// digestScratch backs localDigest: reused across sync exchanges,
	// never sent on the wire.
	digestScratch []store.SourceRange

	// Tree state (Section 2.3).
	treeEpoch  uint32
	treeWave   uint32
	treeRoot   NodeID
	parent     NodeID
	distToRoot time.Duration
	lastWaveAt time.Duration
	rootJitter time.Duration
	// lostDist remembers the distance held before the parent link broke;
	// while detached, only re-attachment offers at or below it are safe
	// (larger ones may come from our own descendants).
	lostDist time.Duration

	deliver DeliverFunc

	gossipTimer   Timer
	maintainTimer Timer
	heartbeat     Timer
	reclaimTimer  Timer
	syncTimer     Timer

	// obs, when non-nil, receives one telemetry record per protocol fact
	// (see observe.go); obsKinds has bit k set for each dtrace.Kind it
	// takes, so every emission site is a single branch.
	obs      Observer
	obsKinds uint64

	// pool is the env's optional message-struct recycler (nil on envs
	// without the capability; the send helpers then allocate).
	pool MessagePool
	// ctlPool is the env's optional control-message recycler, nil like
	// pool when the env has none.
	ctlPool ControlPool

	// treeTargets is the tree-link scratch of the forwarding paths.
	treeTargets []NodeID

	// Coopcast: cached erasure coder (rebuilt when the geometry changes)
	// and scratch reused across messages — per-holder pull sets and the
	// reassembly symbol table (see coopcast.go).
	fecCoder  *fec.RS
	fecParams fec.Params
	symWants  []store.SymbolSet
	symBufs   [][]byte

	// Free lists for the per-message bookkeeping records and reusable
	// scratch, so steady-state dissemination allocates nothing.
	msgFree     []*msgState
	pullFree    []*pullState
	obitScratch []NodeID
	randScratch []*neighbor // tryRebalanceRandom's random links

	// Periodic-tick callbacks are bound once at construction: method
	// values allocate per use, and the ticks re-arm every period.
	tickGossip    func()
	tickMaintain  func()
	tickReclaim   func()
	tickSync      func()
	tickHeartbeat func()

	// repairing/detachedAt time the window between losing the tree parent
	// and re-attaching (or taking over as root), reported on the parent or
	// root record that ends the detachment.
	repairing  bool
	detachedAt time.Duration

	stats Counters
}

// distInfinity marks an unknown distance to the tree root.
const distInfinity = time.Duration(math.MaxInt64)

// neighbor is this node's record of one overlay neighbor.
type neighbor struct {
	entry     Entry
	kind      LinkKind
	rtt       time.Duration
	deg       Degrees // last piggybacked degrees from the peer
	degKnown  bool
	lastHeard time.Duration
	// slot indexes this neighbor's bit in the per-message bitmasks
	// (invalidSlot when more than 64 concurrent slots are in use, which
	// bounded degree makes unreachable in practice).
	slot uint8
	// advert is the peer's last tree advertisement, kept so a node whose
	// parent vanishes can re-pick a parent without waiting for a wave.
	advert    TreeAdvert
	hasAdvert bool
	// child marks a neighbor that named this node its tree parent.
	child bool
}

// neighborList holds the overlay neighbors in link-creation order: the
// gossip and sync round-robin cursors index it, so removal splices and
// keeps the order. Degree is bounded by C + DegreeSlack, so looking a peer
// up by a linear scan of ids stays within a cache line or two and beats a
// hash lookup.
type neighborList struct {
	ids []NodeID
	nbs []*neighbor
}

func (l *neighborList) len() int { return len(l.ids) }

// index returns id's position, or -1 if id is not a neighbor.
func (l *neighborList) index(id NodeID) int {
	for i, v := range l.ids {
		if v == id {
			return i
		}
	}
	return -1
}

// get returns id's record, or nil if id is not a neighbor.
func (l *neighborList) get(id NodeID) *neighbor {
	if i := l.index(id); i >= 0 {
		return l.nbs[i]
	}
	return nil
}

func (l *neighborList) has(id NodeID) bool { return l.index(id) >= 0 }

// add appends a neighbor (the caller checked it is not already present).
func (l *neighborList) add(nb *neighbor) {
	l.ids = append(l.ids, nb.entry.ID)
	l.nbs = append(l.nbs, nb)
}

// removeAt deletes position i, shifting the later neighbors down.
func (l *neighborList) removeAt(i int) {
	last := len(l.ids) - 1
	copy(l.ids[i:], l.ids[i+1:])
	copy(l.nbs[i:], l.nbs[i+1:])
	l.nbs[last] = nil
	l.ids = l.ids[:last]
	l.nbs = l.nbs[:last]
}

// New constructs a node. The returned node is inert until Start is called.
func New(id NodeID, cfg Config, env Env) *Node {
	cfg = cfg.validate()
	st := store.NewMemory(store.Limits{
		MaxMessages: cfg.StoreMaxMessages,
		MaxBytes:    cfg.StoreMaxBytes,
		Retention:   cfg.ReclaimAfter,
	})
	n := &Node{
		id:          id,
		self:        Entry{ID: id},
		cfg:         cfg,
		env:         env,
		maintenance: true,
		store:       st,
		seen:        make(map[uint64]*msgState),
		pending:     make(map[uint64]*pullState),
		treeRoot:    None,
		parent:      None,
		distToRoot:  distInfinity,
	}
	// The view never outgrows MemberViewSize: size it once.
	n.members.reserve(cfg.MemberViewSize)
	if p, ok := env.(MessagePool); ok {
		n.pool = p
	}
	if p, ok := env.(ControlPool); ok {
		n.ctlPool = p
	}
	n.tickGossip = n.gossipTick
	n.tickMaintain = n.maintainTick
	n.tickReclaim = n.reclaimTick
	n.tickSync = n.syncTick
	n.tickHeartbeat = n.heartbeatTick
	return n
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.cfg }

// SetAddr records the node's own transport address, advertised in
// membership entries (live runtime only).
func (n *Node) SetAddr(addr string) { n.self.Addr = addr }

// SetIncarnation sets this node's incarnation number. A restarted node must
// be given a number strictly above any it used in a previous life, before
// Start/Join, so peers treat it as a fresh rejoin rather than a ghost.
func (n *Node) SetIncarnation(inc uint32) { n.self.Inc = inc }

// Incarnation returns this node's current incarnation number. It can grow
// at runtime when the node refutes a false obituary about itself.
func (n *Node) Incarnation() uint32 { return n.self.Inc }

// OnDeliver registers the multicast delivery callback. Must be set before
// Start.
func (n *Node) OnDeliver(fn DeliverFunc) { n.deliver = fn }

// Start activates the node's periodic timers. Gossip and maintenance
// phases are randomized so nodes do not synchronize.
func (n *Node) Start() {
	if n.running {
		return
	}
	n.running = true
	n.rootJitter = time.Duration(n.env.Rand(int(5 * time.Second)))
	n.lastWaveAt = n.env.Now()
	n.gossipTimer = n.env.After(time.Duration(n.env.Rand(int(n.cfg.GossipPeriod)+1)), n.tickGossip)
	n.maintainTimer = n.env.After(time.Duration(n.env.Rand(int(n.cfg.MaintainPeriod)+1)), n.tickMaintain)
	n.reclaimTimer = n.env.After(reclaimScanPeriod, n.tickReclaim)
	if n.syncEnabled() {
		n.syncTimer = n.env.After(n.cfg.SyncInterval+time.Duration(n.env.Rand(int(n.cfg.SyncInterval)+1)), n.tickSync)
	}
	n.measureLandmarks()
	if n.treeRoot == n.id {
		n.scheduleHeartbeat(0)
	}
}

// Stop deactivates the node's timers. The node keeps its state and can be
// inspected afterwards; it will no longer react to anything.
func (n *Node) Stop() {
	n.running = false
	for _, t := range [...]Timer{n.gossipTimer, n.maintainTimer, n.heartbeat, n.reclaimTimer, n.syncTimer} {
		t.Stop()
	}
	for _, ps := range n.pending {
		ps.timer.Stop()
	}
	for _, st := range n.seen {
		if st.sym != nil {
			st.sym.timer.Stop()
		}
	}
}

// Leave gracefully departs: notifies all overlay neighbors with a departing
// Drop so they quarantine this incarnation (and spread the obituary via
// gossip piggyback), then stops.
func (n *Node) Leave() {
	for _, id := range n.neighbors.ids {
		n.env.Send(id, ctl(n, Drop{Degrees: n.degrees(), Departing: true}))
	}
	n.Stop()
}

// SetMaintenance enables or disables the overlay/tree maintenance
// protocols (including neighbor failure detection). The paper's stress
// tests (Figures 3b, 4b, 6) disable maintenance before killing nodes.
func (n *Node) SetMaintenance(on bool) { n.maintenance = on }

// BecomeRoot designates this node as the tree root (used for the first
// node of the system).
func (n *Node) BecomeRoot() {
	n.treeRoot = n.id
	n.treeEpoch++
	n.parent = None
	n.distToRoot = 0
	n.lastWaveAt = n.env.Now()
	if n.running && n.cfg.EnableTree {
		n.scheduleHeartbeat(0)
	}
}

// Join contacts a node already in the overlay and bootstraps membership
// from its reply (Section 2.2.1). The contact must be reachable via Send.
func (n *Node) Join(contact Entry) {
	n.learnEntry(contact)
	n.env.Send(contact.ID, &JoinRequest{From: n.self})
}

// HandleMessage dispatches one protocol message from peer `from`. It is
// the substrate's job to call this on the node's logical thread.
func (n *Node) HandleMessage(from NodeID, m Message) {
	if !n.running {
		return
	}
	nb := n.neighbors.get(from)
	if nb != nil {
		nb.lastHeard = n.env.Now()
	}
	switch msg := m.(type) {
	case *JoinRequest:
		n.handleJoinRequest(from, msg)
	case *JoinReply:
		n.handleJoinReply(from, msg)
	case *Ping:
		n.handlePing(from, msg)
	case *Pong:
		n.handlePong(from, msg)
	case *AddRequest:
		n.handleAddRequest(from, msg)
	case *AddReply:
		n.handleAddReply(from, msg)
	case *Drop:
		n.handleDrop(from, msg)
	case *Rebalance:
		n.handleRebalance(from, msg)
	case *RebalanceReply:
		n.handleRebalanceReply(from, msg)
	case *Gossip:
		n.handleGossip(from, nb, msg)
	case *PullRequest:
		n.handlePullRequest(from, msg)
	case *Multicast:
		n.handleMulticast(from, msg)
	case *TreeAdvert:
		n.handleTreeAdvert(from, msg)
	case *TreeParent:
		n.handleTreeParent(from, msg)
	case *TreeAdvertReq:
		n.handleTreeAdvertReq(from)
	case *SyncRequest:
		n.handleSyncRequest(from, msg)
	case *SyncReply:
		n.handleSyncReply(from, msg)
	case *PullMiss:
		n.handlePullMiss(from, msg)
	case *Symbol:
		n.handleSymbol(from, msg)
	case *SymbolPull:
		n.handleSymbolPull(from, msg)
	}
}

// PeerDown tells the node that the reliable channel to peer broke
// persistently. With the resilient TCP transport this fires only after
// redial attempts with backoff were exhausted (or a writer queue
// overflowed) — transient connection losses are absorbed by the transport
// and never reach the protocol. Ignored while maintenance is disabled,
// which models the paper's "no repair" stress tests.
func (n *Node) PeerDown(peer NodeID) {
	if !n.running || !n.maintenance {
		return
	}
	n.stats.PeerDowns++
	// Quarantine locally (not spread: a broken channel may be a partition,
	// not a death, and a false obituary epidemic would make it worse).
	n.recordObit(peer, n.knownInc(peer), false)
	n.removeNeighbor(peer, false)
	n.abortOpsWith(peer)
}

// handleJoinRequest answers with a membership sample, the landmark set,
// and the current root.
func (n *Node) handleJoinRequest(from NodeID, m *JoinRequest) {
	if n.staleSender(m.From) {
		return
	}
	n.learnEntry(m.From)
	reply := &JoinReply{
		Members:   n.sampleMembers(n.cfg.MemberViewSize, m.From.ID),
		Landmarks: append([]Entry(nil), n.landmarks...),
		Root:      n.treeRoot,
	}
	n.env.Send(from, reply)
}

// handleJoinReply installs the contact's view as our initial member list
// and kicks off landmark measurement; the maintenance cycle then builds
// our neighborhoods.
func (n *Node) handleJoinReply(from NodeID, m *JoinReply) {
	for _, e := range m.Members {
		n.learnEntry(e)
	}
	if len(n.landmarks) == 0 && len(m.Landmarks) > 0 {
		n.SetLandmarks(m.Landmarks)
		n.measureLandmarks()
	}
	if m.Root != None && n.treeRoot == None {
		n.treeRoot = m.Root
	}
	// A (re)joining node may have missed arbitrarily many messages while
	// away; its gossip neighbors will only ever announce IDs received from
	// now on. The join contact is reachable and up to date, so open a sync
	// round with it immediately to recover the backlog.
	n.requestSync(from, true)
}

// degrees snapshots this node's current degrees for piggybacking. The
// snapshot is cached between neighbor-set (or nearby-RTT) changes: every
// gossip and most overlay messages carry degrees, so recounting the
// neighbor list each time shows up in profiles.
func (n *Node) degrees() Degrees {
	if n.degCacheOK {
		return n.degCache
	}
	var d Degrees
	var maxNear time.Duration
	for _, nb := range n.neighbors.nbs {
		switch nb.kind {
		case Random:
			d.Rand++
		case Nearby:
			d.Near++
			if nb.rtt > maxNear {
				maxNear = nb.rtt
			}
		}
	}
	d.MaxNearbyRTT = maxNear
	n.degCache = d
	n.degCacheOK = true
	return d
}

// degreeOf counts this node's neighbors of one kind.
func (n *Node) degreeOf(kind LinkKind) int {
	d := n.degrees()
	if kind == Random {
		return int(d.Rand)
	}
	return int(d.Near)
}

// maxNearbyRTT returns the worst nearby-link RTT (condition C3).
func (n *Node) maxNearbyRTT() time.Duration {
	return n.degrees().MaxNearbyRTT
}
