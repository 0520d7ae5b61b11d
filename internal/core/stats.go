package core

import "unsafe"

// Counters accumulates per-node protocol activity. All fields are event
// counts since the node was created.
type Counters struct {
	// Dissemination.
	Injected     int64 // multicasts started at this node
	Delivered    int64 // messages delivered to the application
	PayloadsRecv int64 // payloads received from peers (first copies)
	Duplicates   int64 // redundant payload copies received
	TreeForwards int64 // payloads pushed along tree links
	GossipsSent  int64
	GossipsRecv  int64
	IDsAnnounced int64 // message IDs included in sent gossips
	PullsSent    int64 // pull requests issued
	PullsServed  int64 // payloads served to pullers
	PullRetries  int64
	Reannounced  int64 // retired messages re-opened for a new neighbor

	// Anti-entropy recovery (digest-based store sync).
	SyncRequestsSent int64 // digest exchanges initiated
	SyncRequestsRecv int64
	SyncRepliesSent  int64 // non-empty reply batches served
	SyncRepliesRecv  int64
	SyncItemsSent    int64 // payloads served through sync replies
	SyncItemsRecv    int64 // payloads recovered through sync replies
	SyncBytesSent    int64 // payload bytes served through sync replies
	PullMissesSent   int64 // expired-pull indications sent to stalled pullers
	PullMissesRecv   int64

	// Coopcast (erasure-coded bulk dissemination).
	SymbolsSent       int64 // symbols pushed down tree links
	SymbolsRecv       int64 // new symbols accepted from peers
	SymbolsServed     int64 // symbols served in response to symbol pulls
	SymbolDups        int64 // redundant symbol copies received
	SymbolsRejected   int64 // symbols/adverts rejected (bad geometry or size)
	SymbolPullsSent   int64 // SymbolPull requests issued
	FECDecodes        int64 // payloads reconstructed from K-of-N symbols
	FECDecodeFailures int64 // reassemblies abandoned on decode error

	// Overlay maintenance.
	AddsSent      int64
	AddsAccepted  int64 // add requests this node accepted
	AddsRejected  int64 // add requests this node rejected
	LinkAdds      int64 // links installed at this node
	LinkDrops     int64 // links removed at this node
	Rebalances    int64 // completed random-degree rebalance operations
	PingsSent     int64
	TreeAdverts   int64
	RootTakeovers int64
	PeerDowns     int64 // transport-reported persistent channel failures

	// Churn hygiene (incarnation-numbered membership).
	StaleIncRejects   int64 // messages/entries rejected as a peer's dead past life
	ObitsRecorded     int64 // obituaries recorded (local evidence or gossip)
	ObitsHonored      int64 // entry re-learns blocked by an active obituary
	StaleLinksDropped int64 // links torn down because the peer rejoined with a higher incarnation
	RejoinsObserved   int64 // higher-incarnation entries observed for a known node
	SelfRefutes       int64 // incarnation bumps refuting a false obituary about this node
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Counters { return n.stats }

// StateBytes itemizes the memory a node's per-peer state pins: for each
// table the capacity of its backing arrays times the element size, plus
// the Node struct itself. It measures the working set every simulated
// event draws from, not what the tables currently use.
type StateBytes struct {
	Node         int // the Node struct
	View         int // member records and, if allocated, their address column
	ViewIndex    int // NodeID -> view position
	RTT          int // measured-RTT cache
	LastPong     int
	Obits        int
	PendingAdd   int
	RetiredSlots int
	LastSyncTo   int
	Neighbors    int // the ordered ID and record slices plus the records
	Pings        int // outstanding pings
}

// Total sums every item.
func (s StateBytes) Total() int {
	return s.Node + s.View + s.ViewIndex + s.RTT + s.LastPong + s.Obits + s.PendingAdd +
		s.RetiredSlots + s.LastSyncTo + s.Neighbors + s.Pings
}

// StateBytes reports the bytes of the node's per-peer state.
func (n *Node) StateBytes() StateBytes {
	m := &n.members
	return StateBytes{
		Node:         int(unsafe.Sizeof(*n)),
		View:         cap(m.recs)*int(unsafe.Sizeof(viewRec{})) + cap(m.addrs)*int(unsafe.Sizeof("")),
		ViewIndex:    m.pos.bytes(),
		RTT:          n.rtt.bytes(),
		LastPong:     n.lastPong.bytes(),
		Obits:        n.obits.bytes(),
		PendingAdd:   n.pendingAdd.bytes(),
		RetiredSlots: n.retiredSlots.bytes(),
		LastSyncTo:   n.lastSyncTo.bytes(),
		Neighbors: cap(n.neighbors.ids)*int(unsafe.Sizeof(NodeID(0))) +
			cap(n.neighbors.nbs)*int(unsafe.Sizeof(&neighbor{})) +
			n.neighbors.len()*int(unsafe.Sizeof(neighbor{})),
		Pings: cap(n.pings) * int(unsafe.Sizeof(pingCtx{})),
	}
}
