package live

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"gocast/internal/core"
	"gocast/internal/dtrace"
	"gocast/internal/obs"
)

// defaultTraceCapacity sizes the per-node event ring when NodeOptions does
// not specify one.
const defaultTraceCapacity = 1024

// StatusSnapshot is a point-in-time view of one node, served by /statusz.
type StatusSnapshot struct {
	ID            core.NodeID `json:"id"`
	Addr          string      `json:"addr"`
	Incarnation   uint32      `json:"incarnation"`
	Degree        int         `json:"degree"`
	Members       int         `json:"members"`
	Parent        core.NodeID `json:"parent"`
	Root          core.NodeID `json:"root"`
	DistToRoot    string      `json:"dist_to_root,omitempty"`
	StoreMessages int         `json:"store_messages"`
	StoreBytes    int64       `json:"store_bytes"`
	// FECAssembling counts coopcast messages currently mid-reassembly
	// (first symbol received, not yet decoded or failed);
	// FECOldestAssembly is the age of the oldest such assembly.
	FECAssembling     int    `json:"fec_assembling"`
	FECOldestAssembly string `json:"fec_oldest_assembly,omitempty"`
	Overload          string `json:"overload"`
	Stopped           bool   `json:"stopped"`
}

// nodeObs adapts core.Observer onto the metrics registry, the event ring
// and the span ring. Observe runs on the node's event loop; the histogram
// and counter handles are captured once so the hot path stays
// allocation-free.
type nodeObs struct {
	n *Node

	treeForward *obs.Histogram
	gossipRound *obs.Histogram
	pullRTT     *obs.Histogram
	treeRepair  *obs.Histogram
	gcSweep     *obs.Histogram
	syncPage    *obs.Histogram
	reassembly  *obs.Histogram

	syncPages   *obs.Counter
	gcReclaimed *obs.Counter
	gcDropped   *obs.Counter

	// Span-ring handles. spanAge only sees delivery-kind spans, giving the
	// per-delivery end-to-end latency distribution of sampled messages.
	spansRecorded *obs.Counter
	spanAge       *obs.Histogram

	sample  int   // record every sample-th event-ring record (<=1 = all)
	evCount int64 // event-loop only, no atomics needed
}

// Observe feeds one record to the histograms and counters its kind
// measures, to the event ring (sends, deliveries, pulls, link, parent and
// root changes) and, for sampled messages, to the span ring.
func (o *nodeObs) Observe(s dtrace.Span) {
	event := true
	switch s.Kind {
	case dtrace.KindTreeDeliver, dtrace.KindPullDeliver, dtrace.KindSyncDeliver:
		if s.Kind == dtrace.KindTreeDeliver {
			o.treeForward.ObserveDuration(s.Age)
		}
		if s.Aux2 > 0 {
			o.pullRTT.ObserveDuration(s.End - time.Duration(s.Aux2))
		}
	case dtrace.KindReassembly:
		o.reassembly.ObserveDuration(s.End - s.Start)
	case dtrace.KindParent, dtrace.KindRoot:
		if s.Aux2 == 1 {
			o.treeRepair.ObserveDuration(s.End - s.Start)
		}
	case dtrace.KindGossipRound:
		o.gossipRound.ObserveDuration(s.End - s.Start)
		event = false
	case dtrace.KindSyncPage:
		o.syncPages.Inc()
		o.syncPage.Observe(float64(s.Aux2))
		event = false
	case dtrace.KindStoreGC:
		o.gcSweep.ObserveDuration(s.End - s.Start)
		o.gcReclaimed.Add(s.Aux)
		o.gcDropped.Add(s.Aux2)
		event = false
	case dtrace.KindAdvert, dtrace.KindSymbolTree, dtrace.KindSymbolPull:
		event = false
	}
	if event && o.n.tbuf != nil {
		o.evCount++
		if o.sample <= 1 || (o.evCount-1)%int64(o.sample) == 0 {
			o.n.tbuf.Record(s)
		}
	}
	if s.Sampled && o.n.sbuf != nil {
		o.n.sbuf.Record(s)
		o.spansRecorded.Inc()
		if s.Kind.DeliveryKind() {
			o.spanAge.ObserveDuration(s.Age)
		}
	}
}

// setupObs wires the node's registry, event and span rings, and core
// observer. Called from NewNode before the event loop starts.
func (n *Node) setupObs() {
	reg := n.opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	n.reg = reg
	capa := n.opts.TraceCapacity
	if capa == 0 {
		capa = defaultTraceCapacity
	}
	if capa > 0 {
		n.tbuf = dtrace.NewBuffer(capa)
	}
	if n.opts.SpanCapacity >= 0 {
		n.sbuf = dtrace.NewBuffer(n.opts.SpanCapacity)
	}
	n.coreN.SetObserver(&nodeObs{
		n:           n,
		sample:      n.opts.TraceSample,
		treeForward: reg.Histogram("gocast_core_tree_forward_latency_seconds", "estimated injection-to-delivery age of payloads received over tree links", nil),
		gossipRound: reg.Histogram("gocast_core_gossip_round_duration_seconds", "wall time spent building and sending one gossip summary", nil),
		pullRTT:     reg.Histogram("gocast_core_pull_rtt_seconds", "time from sending a PullRequest to the pulled payload landing", nil),
		treeRepair:  reg.Histogram("gocast_core_tree_repair_duration_seconds", "time spent detached from the tree after losing the parent", nil),
		gcSweep:     reg.Histogram("gocast_store_gc_sweep_duration_seconds", "duration of one message-store GC sweep", nil),
		syncPage:    reg.Histogram("gocast_sync_page_bytes", "payload bytes per served anti-entropy reply batch", obs.DefByteBuckets),
		reassembly:  reg.Histogram("gocast_fec_reassembly_seconds", "time from a coopcast message's first symbol arriving to the payload decoding", nil),
		syncPages:   reg.Counter("gocast_sync_pages_served_total", "anti-entropy reply batches served"),
		gcReclaimed: reg.Counter("gocast_store_gc_reclaimed_total", "payloads reclaimed by store GC sweeps"),
		gcDropped:   reg.Counter("gocast_store_gc_dropped_total", "records dropped entirely by store GC sweeps"),

		spansRecorded: reg.Counter("gocast_trace_spans_recorded_total", "dissemination trace spans recorded into the span ring"),
		spanAge:       reg.Histogram("gocast_trace_delivery_age_seconds", "estimated injection-to-delivery age per delivery span of sampled messages", nil),
	})
	// Pre-registered so the family exists (at zero) from the first scrape.
	reg.Counter("gocast_trace_spans_dropped_total", "dissemination trace spans evicted from the full span ring")
	reg.Gauge("gocast_fec_assembling", "coopcast messages currently mid-reassembly (first symbol received, not decoded or failed)")
	// Overload-protection surfaces. The handles are captured so the shed
	// and publish-reject paths never touch the registry map.
	n.mbDropped = reg.Counter("gocast_live_mailbox_dropped_total", "event-loop work units shed by the prioritized mailbox (all classes)")
	n.mbShed = [core.NumClasses]*obs.Counter{
		core.ClassCritical:   reg.Counter("gocast_overload_shed_critical_total", "Critical-class work shed under overload (should stay zero)"),
		core.ClassRepair:     reg.Counter("gocast_overload_shed_repair_total", "Repair-class work shed under overload"),
		core.ClassBackground: reg.Counter("gocast_overload_shed_background_total", "Background-class work shed under overload"),
	}
	n.loopPanics = reg.Counter("gocast_live_loop_panics_total", "panics recovered on the node's event loop")
	n.pubRejected = reg.Counter("gocast_overload_publish_rejected_total", "local publishes rejected with ErrOverloaded while Shedding")
	n.ovState = reg.Gauge("gocast_overload_state", "degradation level: 0 healthy, 1 degraded, 2 shedding")
	n.ovTrans = reg.Counter("gocast_overload_transitions_total", "overload state-machine transitions")
	reg.AddCollector(n.collect)
}

// collect mirrors the node's protocol, store, and transport state into the
// registry and refreshes the cached stats/status snapshots. It runs at
// scrape time (as a registry collector) and from the stats accessors. The
// store and transport snapshots carry every counter name, zeros included,
// so the first run registers each family. Once the node has stopped, the
// core-side mirror is skipped and the registry keeps the values of the
// final collect performed during Close/Kill.
func (n *Node) collect() {
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	var (
		s            core.Counters
		inc          uint32
		degree       int
		members      int
		parent, root core.NodeID
		dist         time.Duration
		distOK       bool
		storeCtr     map[string]int64
		storeLen     int
		storeBytes   int64
		assembling   int
		eagerAdverts int64
		oldestAsm    time.Duration
	)
	if err := n.call(func() {
		s = n.coreN.Stats()
		inc = n.coreN.Incarnation()
		degree = n.coreN.Degree()
		members = n.coreN.MemberCount()
		parent = n.coreN.Parent()
		root = n.coreN.Root()
		dist, distOK = n.coreN.DistToRoot()
		st := n.coreN.Store()
		storeCtr = st.Counters()
		storeLen = st.Len()
		storeBytes = st.Bytes()
		assembling, oldestAsm = n.coreN.Assembling()
		eagerAdverts = n.coreN.EagerAdverts()
	}); err == nil {
		n.lastStats = s
		n.lastStatus = StatusSnapshot{
			ID:            n.opts.ID,
			Addr:          n.opts.Transport.Addr(),
			Incarnation:   inc,
			Degree:        degree,
			Members:       members,
			Parent:        parent,
			Root:          root,
			StoreMessages: storeLen,
			StoreBytes:    storeBytes,
			FECAssembling: assembling,
		}
		if distOK {
			n.lastStatus.DistToRoot = dist.String()
		}
		if assembling > 0 {
			n.lastStatus.FECOldestAssembly = oldestAsm.String()
		}
		n.oldestAsm = oldestAsm
		n.mirrorCore(s, inc, degree, members, storeCtr, storeLen, storeBytes)
		n.reg.Gauge("gocast_fec_assembling", "coopcast messages currently mid-reassembly (first symbol received, not decoded or failed)").Set(int64(assembling))
		n.reg.Counter("gocast_fec_symbol_adverts_eager_total", "coopcast symbol adverts sent at once, outside the gossip round").Set(eagerAdverts)
	}
	if n.sbuf != nil {
		n.reg.Counter("gocast_trace_spans_dropped_total", "dissemination trace spans evicted from the full span ring").Set(n.sbuf.Dropped())
	}
	// Transport counters stay readable after the node stops.
	if ts, ok := n.opts.Transport.(interface{ Stats() map[string]int64 }); ok {
		for k, v := range ts.Stats() {
			n.reg.Counter("gocast_transport_"+k+"_total", "transport counter "+k).Set(v)
		}
	}
}

// mirrorCore copies one consistent core snapshot into the registry. Metric
// names are chosen so that stripping the gocast_<group>_ prefix and _total
// suffix reproduces the keys the legacy per-group stats maps used.
func (n *Node) mirrorCore(s core.Counters, inc uint32, degree, members int, storeCtr map[string]int64, storeLen int, storeBytes int64) {
	set := func(name string, v int64) {
		n.reg.Counter(name, "core protocol counter (see core.Counters)").Set(v)
	}
	// Dissemination and overlay maintenance.
	set("gocast_core_injected_total", s.Injected)
	set("gocast_core_delivered_total", s.Delivered)
	set("gocast_core_payloads_recv_total", s.PayloadsRecv)
	set("gocast_core_duplicates_total", s.Duplicates)
	set("gocast_core_tree_forwards_total", s.TreeForwards)
	set("gocast_core_gossips_sent_total", s.GossipsSent)
	set("gocast_core_gossips_recv_total", s.GossipsRecv)
	set("gocast_core_ids_announced_total", s.IDsAnnounced)
	set("gocast_core_pulls_sent_total", s.PullsSent)
	set("gocast_core_pulls_served_total", s.PullsServed)
	set("gocast_core_pull_retries_total", s.PullRetries)
	set("gocast_core_reannounced_total", s.Reannounced)
	set("gocast_core_adds_sent_total", s.AddsSent)
	set("gocast_core_adds_accepted_total", s.AddsAccepted)
	set("gocast_core_adds_rejected_total", s.AddsRejected)
	set("gocast_core_link_adds_total", s.LinkAdds)
	set("gocast_core_link_drops_total", s.LinkDrops)
	set("gocast_core_rebalances_total", s.Rebalances)
	set("gocast_core_pings_sent_total", s.PingsSent)
	set("gocast_core_tree_adverts_total", s.TreeAdverts)
	set("gocast_core_root_takeovers_total", s.RootTakeovers)
	set("gocast_core_peer_downs_total", s.PeerDowns)
	// Anti-entropy sync.
	set("gocast_sync_requests_sent_total", s.SyncRequestsSent)
	set("gocast_sync_requests_recv_total", s.SyncRequestsRecv)
	set("gocast_sync_replies_sent_total", s.SyncRepliesSent)
	set("gocast_sync_replies_recv_total", s.SyncRepliesRecv)
	set("gocast_sync_items_sent_total", s.SyncItemsSent)
	set("gocast_sync_items_recv_total", s.SyncItemsRecv)
	set("gocast_sync_bytes_sent_total", s.SyncBytesSent)
	set("gocast_sync_pull_misses_sent_total", s.PullMissesSent)
	set("gocast_sync_pull_misses_recv_total", s.PullMissesRecv)
	// Churn hygiene.
	set("gocast_churn_stale_inc_rejects_total", s.StaleIncRejects)
	set("gocast_churn_obits_recorded_total", s.ObitsRecorded)
	set("gocast_churn_obits_honored_total", s.ObitsHonored)
	set("gocast_churn_stale_links_dropped_total", s.StaleLinksDropped)
	set("gocast_churn_rejoins_observed_total", s.RejoinsObserved)
	set("gocast_churn_self_refutes_total", s.SelfRefutes)
	// Erasure-coded bulk dissemination (coopcast).
	set("gocast_fec_symbols_sent_total", s.SymbolsSent)
	set("gocast_fec_symbols_recv_total", s.SymbolsRecv)
	set("gocast_fec_symbols_served_total", s.SymbolsServed)
	set("gocast_fec_symbol_dups_total", s.SymbolDups)
	set("gocast_fec_symbols_rejected_total", s.SymbolsRejected)
	set("gocast_fec_symbol_pulls_sent_total", s.SymbolPullsSent)
	set("gocast_fec_decodes_total", s.FECDecodes)
	set("gocast_fec_decode_failures_total", s.FECDecodeFailures)
	n.reg.Gauge("gocast_churn_incarnation", "this node's current incarnation number").Set(int64(inc))
	// Overlay and membership occupancy.
	n.reg.Gauge("gocast_core_degree", "current overlay degree").Set(int64(degree))
	n.reg.Gauge("gocast_core_members", "current partial-view member count").Set(int64(members))
	// Store occupancy and activity.
	for k, v := range storeCtr {
		n.reg.Counter("gocast_store_"+k+"_total", "message store counter "+k).Set(v)
	}
	n.reg.Gauge("gocast_store_live_messages", "payloads currently buffered in the message store").Set(int64(storeLen))
	n.reg.Gauge("gocast_store_live_bytes", "payload bytes currently buffered in the message store").Set(storeBytes)
}

// statsView snapshots the registry's gocast_<group>_* counters and gauges
// as a flat map, stripping the group prefix and the counter _total suffix —
// the shape the per-group stats accessors have always returned. Histograms
// are omitted (scrape /metrics for those). Unlike the pre-registry
// implementations, the view stays available after Close/Kill, returning the
// final collected values instead of zeros.
func (n *Node) statsView(group string) map[string]int64 {
	prefix := "gocast_" + group + "_"
	out := map[string]int64{}
	for _, m := range n.reg.Gather() {
		if m.Type == obs.TypeHistogram || !strings.HasPrefix(m.Name, prefix) {
			continue
		}
		key := strings.TrimPrefix(m.Name, prefix)
		if m.Type == obs.TypeCounter {
			key = strings.TrimSuffix(key, "_total")
		}
		out[key] = m.Value
	}
	return out
}

// Registry returns the node's metrics registry (never nil). When
// NodeOptions.Registry was set, this is that shared registry.
func (n *Node) Registry() *obs.Registry { return n.reg }

// Trace returns the node's protocol event ring, or nil when tracing was
// disabled with a negative NodeOptions.TraceCapacity. Its records print
// as one line each (dtrace.Span.String).
func (n *Node) Trace() *dtrace.Buffer { return n.tbuf }

// Status returns a point-in-time view of the node for /statusz-style
// surfacing. After Close/Kill it reports the last state collected before
// the stop, with Stopped set.
func (n *Node) Status() StatusSnapshot {
	n.collect()
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	st := n.lastStatus
	st.Overload = n.gov.level.load().String()
	st.Stopped = n.Stopped()
	return st
}

// Health reports nil while the node looks able to participate in the
// group: running, aware of a tree root, and — once it has ever held an
// overlay link — still connected to at least one neighbor. The error text
// becomes the /healthz failure body.
func (n *Node) Health() error {
	if n.Stopped() {
		return ErrStopped
	}
	if n.panicked.Load() {
		return fmt.Errorf("event loop recovered %d panic(s); node state may be inconsistent", n.loopPanics.Value())
	}
	if n.gov.level.load() == core.OverloadShedding {
		return errors.New("overloaded: shedding new publishes")
	}
	n.collect()
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	if n.lastStats.LinkAdds > 0 && n.lastStatus.Degree == 0 {
		return fmt.Errorf("overlay disconnected: no neighbors left (%d members known)", n.lastStatus.Members)
	}
	if n.coreN.Config().EnableTree && n.lastStatus.Root == core.None {
		return errors.New("no tree root known")
	}
	// A reassembly older than ReclaimAfter (half the store's MaxAge) has
	// outlived every repair mechanism's expected horizon: symbols stopped
	// arriving and the assembly is effectively stuck until the store GC
	// abandons it.
	if stuck := n.coreN.Config().ReclaimAfter; n.lastStatus.FECAssembling > 0 && n.oldestAsm > stuck {
		return fmt.Errorf("stuck FEC assembly: oldest of %d in-progress reassemblies is %v old (limit %v)",
			n.lastStatus.FECAssembling, n.oldestAsm, stuck)
	}
	return nil
}
