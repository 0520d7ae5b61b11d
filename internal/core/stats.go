package core

import (
	"reflect"
	"unsafe"
)

// Counters accumulates per-node protocol activity. All fields are event
// counts since the node was created. Each field's metric tag is the name
// it is exported under; Add and Each walk the fields in declaration order,
// so a new counter is one tagged line here.
type Counters struct {
	// Dissemination.
	Injected     int64 `metric:"gocast_core_injected_total"`      // multicasts started at this node
	Delivered    int64 `metric:"gocast_core_delivered_total"`     // messages delivered to the application
	PayloadsRecv int64 `metric:"gocast_core_payloads_recv_total"` // payloads received from peers (first copies)
	Duplicates   int64 `metric:"gocast_core_duplicates_total"`    // redundant payload copies received
	TreeForwards int64 `metric:"gocast_core_tree_forwards_total"` // payloads pushed along tree links
	GossipsSent  int64 `metric:"gocast_core_gossips_sent_total"`
	GossipsRecv  int64 `metric:"gocast_core_gossips_recv_total"`
	IDsAnnounced int64 `metric:"gocast_core_ids_announced_total"` // message IDs included in sent gossips
	PullsSent    int64 `metric:"gocast_core_pulls_sent_total"`    // pull requests issued
	PullsServed  int64 `metric:"gocast_core_pulls_served_total"`  // payloads served to pullers
	PullRetries  int64 `metric:"gocast_core_pull_retries_total"`
	Reannounced  int64 `metric:"gocast_core_reannounced_total"` // retired messages re-opened for a new neighbor

	// Anti-entropy recovery (digest-based store sync).
	SyncRequestsSent int64 `metric:"gocast_sync_requests_sent_total"` // digest exchanges initiated
	SyncRequestsRecv int64 `metric:"gocast_sync_requests_recv_total"`
	SyncRepliesSent  int64 `metric:"gocast_sync_replies_sent_total"` // non-empty reply batches served
	SyncRepliesRecv  int64 `metric:"gocast_sync_replies_recv_total"`
	SyncItemsSent    int64 `metric:"gocast_sync_items_sent_total"`       // payloads served through sync replies
	SyncItemsRecv    int64 `metric:"gocast_sync_items_recv_total"`       // payloads recovered through sync replies
	SyncBytesSent    int64 `metric:"gocast_sync_bytes_sent_total"`       // payload bytes served through sync replies
	PullMissesSent   int64 `metric:"gocast_sync_pull_misses_sent_total"` // expired-pull indications sent to stalled pullers
	PullMissesRecv   int64 `metric:"gocast_sync_pull_misses_recv_total"`

	// Coopcast (erasure-coded bulk dissemination).
	SymbolsSent       int64 `metric:"gocast_fec_symbols_sent_total"`      // symbols pushed down tree links
	SymbolsRecv       int64 `metric:"gocast_fec_symbols_recv_total"`      // new symbols accepted from peers
	SymbolsServed     int64 `metric:"gocast_fec_symbols_served_total"`    // symbols served in response to symbol pulls
	SymbolDups        int64 `metric:"gocast_fec_symbol_dups_total"`       // redundant symbol copies received
	SymbolsRejected   int64 `metric:"gocast_fec_symbols_rejected_total"`  // symbols/adverts rejected (bad geometry or size)
	SymbolPullsSent   int64 `metric:"gocast_fec_symbol_pulls_sent_total"` // SymbolPull requests issued
	FECDecodes        int64 `metric:"gocast_fec_decodes_total"`           // payloads reconstructed from K-of-N symbols
	FECDecodeFailures int64 `metric:"gocast_fec_decode_failures_total"`   // reassemblies abandoned on decode error

	// Overlay maintenance.
	AddsSent      int64 `metric:"gocast_core_adds_sent_total"`
	AddsAccepted  int64 `metric:"gocast_core_adds_accepted_total"` // add requests this node accepted
	AddsRejected  int64 `metric:"gocast_core_adds_rejected_total"` // add requests this node rejected
	LinkAdds      int64 `metric:"gocast_core_link_adds_total"`     // links installed at this node
	LinkDrops     int64 `metric:"gocast_core_link_drops_total"`    // links removed at this node
	Rebalances    int64 `metric:"gocast_core_rebalances_total"`    // completed random-degree rebalance operations
	PingsSent     int64 `metric:"gocast_core_pings_sent_total"`
	TreeAdverts   int64 `metric:"gocast_core_tree_adverts_total"`
	RootTakeovers int64 `metric:"gocast_core_root_takeovers_total"`
	PeerDowns     int64 `metric:"gocast_core_peer_downs_total"` // transport-reported persistent channel failures

	// Churn hygiene (incarnation-numbered membership).
	StaleIncRejects   int64 `metric:"gocast_churn_stale_inc_rejects_total"`   // messages/entries rejected as a peer's dead past life
	ObitsRecorded     int64 `metric:"gocast_churn_obits_recorded_total"`      // obituaries recorded (local evidence or gossip)
	ObitsHonored      int64 `metric:"gocast_churn_obits_honored_total"`       // entry re-learns blocked by an active obituary
	StaleLinksDropped int64 `metric:"gocast_churn_stale_links_dropped_total"` // links torn down because the peer rejoined with a higher incarnation
	RejoinsObserved   int64 `metric:"gocast_churn_rejoins_observed_total"`    // higher-incarnation entries observed for a known node
	SelfRefutes       int64 `metric:"gocast_churn_self_refutes_total"`        // incarnation bumps refuting a false obituary about this node
}

// counterNames holds every Counters field's metric name in declaration
// order, read once from the struct tags. Building it checks that every
// field is a tagged int64, which is what lets counts view the struct as
// an array.
var counterNames = func() []string {
	t := reflect.TypeOf(Counters{})
	names := make([]string, t.NumField())
	for i := range names {
		f := t.Field(i)
		names[i] = f.Tag.Get("metric")
		if f.Type.Kind() != reflect.Int64 || names[i] == "" {
			panic("core.Counters." + f.Name + " must be an int64 with a metric tag")
		}
	}
	return names
}()

// counts views the counters as one int64 per field, in declaration order.
func (c *Counters) counts() []int64 {
	return unsafe.Slice((*int64)(unsafe.Pointer(c)), len(counterNames))
}

// Add adds every counter of o to c.
func (c *Counters) Add(o Counters) {
	dst, src := c.counts(), o.counts()
	for i := range dst {
		dst[i] += src[i]
	}
}

// Each calls fn with every counter's metric name and value, in
// declaration order.
func (c *Counters) Each(fn func(name string, v int64)) {
	for i, v := range c.counts() {
		fn(counterNames[i], v)
	}
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
