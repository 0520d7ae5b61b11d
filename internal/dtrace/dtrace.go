// Package dtrace defines GoCast's one telemetry record, Span, and its
// causal dissemination tracer: sampled, per-message delivery-path
// reconstruction across nodes.
//
// internal/core reports every protocol fact as one Span through one
// Observer method: deliveries, tree sends, pulls, link/parent/root
// changes, gossip rounds, sync pages and store GC sweeps. Consumers
// switch on Kind: the live runtime feeds its histograms and event ring,
// the simulator its tree-repair accounting.
//
// Sampled multicasts carry a small hop context on the wire (sampled bit,
// hop count, origin stamp). Every node the message touches records typed
// Spans — inject, tree delivery, gossip advert, pull request, pull
// delivery, sync catch-up, FEC symbol receipt, reassembly — marked
// Sampled, and span sinks keep exactly those in a bounded Buffer. A
// stitcher (Stitch) collects spans from all nodes and
// reconstructs each message's dissemination tree with per-delivery
// latency attribution: did this node get the message by tree push, by a
// gossip pull after loss, by anti-entropy sync, or by FEC reassembly,
// and where did the time go.
//
// The package is dependency-free (standard library only) so internal/core
// can emit Spans without importing the observability stack. Span is a
// small value type; recording one is a struct copy under a mutex, no
// allocation.
package dtrace

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Kind is the type of one span. The message kinds, KindInject through
// KindReassembly, trace one message: delivery kinds (Inject, TreeDeliver,
// PullDeliver, SyncDeliver, Reassembly) mark the message landing on a
// node; the rest are waypoints attributed to the node's delivery. The
// kinds after them report the node's own activity and are never Sampled
// (a tree send names its message but is not a trace span).
type Kind uint8

// Span kinds.
const (
	// KindInject marks the origin: the application published the message
	// on this node. Point event.
	KindInject Kind = iota + 1
	// KindTreeDeliver marks a delivery via tree push. Point event at
	// receipt; Hops is the tree depth the message traveled, Age the
	// estimated injection-to-delivery age. Aux2 is when this node sent a
	// pull request for the message, 0 if it sent none: End-Aux2 is then
	// the pull RTT even though the tree copy won.
	KindTreeDeliver
	// KindPullDeliver marks a delivery via a gossip pull reply.
	// Start is when the pull request was sent, End is receipt, so
	// End-Start is the pull RTT; Aux2 as for KindTreeDeliver.
	KindPullDeliver
	// KindSyncDeliver marks a delivery via anti-entropy sync catch-up.
	// Point event at receipt; Aux2 as for KindTreeDeliver.
	KindSyncDeliver
	// KindAdvert marks the node first hearing of the message in a gossip
	// digest. Point event; From is the advertising peer.
	KindAdvert
	// KindPull marks a pull request leaving the node; From is the holder
	// asked. Start is when the node learned of the message (advert time),
	// End is the request send, so End-Start is the deliberate pull wait;
	// Aux is the attempt number (0 for the immediate first pull) or, for a
	// coopcast symbol pull, the number of symbols asked for.
	KindPull
	// KindSymbolTree marks an FEC symbol arriving via tree push; Aux is
	// the symbol index.
	KindSymbolTree
	// KindSymbolPull marks an FEC symbol arriving via gossip pull or
	// sync; Aux is the symbol index.
	KindSymbolPull
	// KindReassembly marks an FEC decode completing: the coopcast message
	// is delivered. Start is first-symbol receipt, End is decode, Aux is
	// the number of symbols held at decode.
	KindReassembly

	// KindTreeSend marks a tree push leaving the node. Src/Seq name the
	// message, From is the destination, Aux the FEC symbol index (0 for a
	// whole payload). Point event.
	KindTreeSend
	// KindLinkUp marks an overlay link appearing. From is the peer, Aux
	// the link kind (1 random, 2 nearby), Aux2 the link RTT in
	// nanoseconds. Point event.
	KindLinkUp
	// KindLinkDown marks an overlay link vanishing; fields as KindLinkUp.
	KindLinkDown
	// KindParent marks a tree parent change. From is the new parent (-1
	// when detached), Aux the old one. When the change re-attaches the
	// node after it lost its parent, Aux2 is 1 and Start is when it
	// detached, so End-Start is the tree-repair time; otherwise it is a
	// point event.
	KindParent
	// KindRoot marks the node's view of the tree root changing. From is
	// the new root, Aux the old one. A root takeover that ends a
	// detachment carries the tree-repair time as KindParent does.
	KindRoot
	// KindGossipRound brackets one gossip tick building and sending its
	// summary.
	KindGossipRound
	// KindSyncPage marks one anti-entropy reply batch leaving the node.
	// From is the requester, Aux the item count, Aux2 the payload bytes.
	// Point event.
	KindSyncPage
	// KindStoreGC brackets one message-store GC sweep. Aux counts the
	// payloads reclaimed, Aux2 the records dropped entirely.
	KindStoreGC
)

func (k Kind) String() string {
	switch k {
	case KindInject:
		return "inject"
	case KindTreeDeliver:
		return "tree-deliver"
	case KindPullDeliver:
		return "pull-deliver"
	case KindSyncDeliver:
		return "sync-deliver"
	case KindAdvert:
		return "advert"
	case KindPull:
		return "pull-req"
	case KindSymbolTree:
		return "symbol-tree"
	case KindSymbolPull:
		return "symbol-pull"
	case KindReassembly:
		return "reassembly"
	case KindTreeSend:
		return "tree-send"
	case KindLinkUp:
		return "link-up"
	case KindLinkDown:
		return "link-down"
	case KindParent:
		return "parent"
	case KindRoot:
		return "root"
	case KindGossipRound:
		return "gossip-round"
	case KindSyncPage:
		return "sync-page"
	case KindStoreGC:
		return "store-gc"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// DeliveryKind reports whether k marks the message landing on a node.
func (k Kind) DeliveryKind() bool {
	switch k {
	case KindInject, KindTreeDeliver, KindPullDeliver, KindSyncDeliver, KindReassembly:
		return true
	}
	return false
}

// Span is one typed telemetry record of one node: a trace event for one
// message, or a fact about the node itself (see Kind). It is a flat value
// type: recording and snapshotting copy it, never point into protocol
// state.
//
// Start/End are the recording node's own clock (netsim: globally
// comparable virtual time; live: per-node monotonic time, NOT comparable
// across nodes — Age is the skew-free latency signal there). Point
// events have Start == End.
type Span struct {
	// Src and Seq identify the message (MessageID fields).
	Src int32  `json:"src"`
	Seq uint32 `json:"seq"`
	// Node recorded the span; From is the peer whose message triggered
	// it (-1 for local events like inject), or the peer the kind names.
	Node int32 `json:"node"`
	From int32 `json:"from"`
	Kind Kind  `json:"kind"`
	// Hops is the hop count carried in the triggering message's hop
	// context (0 at the origin).
	Hops uint8 `json:"hops"`
	// Sampled marks a dissemination-trace span of a sampled message: span
	// sinks (/spans, netsim's Spans buffer) keep exactly these records.
	Sampled bool `json:"-"`
	// Start and End bracket the span on the recording node's clock.
	Start time.Duration `json:"start"`
	End   time.Duration `json:"end"`
	// Age is the protocol's skew-free age estimate for the message at
	// the event.
	Age time.Duration `json:"age"`
	// Aux is kind-specific: pull attempt number, symbol index, symbol
	// count at decode.
	Aux int64 `json:"aux,omitempty"`
	// Aux2 is a second kind-specific value (see the Kind constants).
	Aux2 int64 `json:"-"`
}

// String formats the span as one event-ring line: the time on the
// recording node's clock, the kind, the node, the peer, and the kind's
// fields.
func (s Span) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12v %-12s node=%d", s.End, s.Kind, s.Node)
	if s.From >= 0 {
		fmt.Fprintf(&b, " peer=%d", s.From)
	}
	switch s.Kind {
	case KindLinkUp, KindLinkDown:
		kind := fmt.Sprint(s.Aux)
		switch s.Aux {
		case 1:
			kind = "random"
		case 2:
			kind = "nearby"
		}
		fmt.Fprintf(&b, " kind=%s rtt=%v", kind, time.Duration(s.Aux2))
	case KindParent, KindRoot:
		fmt.Fprintf(&b, " %d -> %d", s.Aux, s.From)
		if s.Aux2 == 1 {
			fmt.Fprintf(&b, " repair=%v", s.End-s.Start)
		}
	case KindGossipRound:
		fmt.Fprintf(&b, " took=%v", s.End-s.Start)
	case KindSyncPage:
		fmt.Fprintf(&b, " items=%d bytes=%d", s.Aux, s.Aux2)
	case KindStoreGC:
		fmt.Fprintf(&b, " reclaimed=%d dropped=%d took=%v", s.Aux, s.Aux2, s.End-s.Start)
	default:
		fmt.Fprintf(&b, " msg=%d/%d", s.Src, s.Seq)
		if s.Kind.DeliveryKind() && s.Kind != KindInject {
			fmt.Fprintf(&b, " age=%v", s.Age)
		}
		if s.Aux != 0 {
			fmt.Fprintf(&b, " aux=%d", s.Aux)
		}
	}
	return b.String()
}

// Buffer is a bounded ring of spans. Recording overwrites the oldest
// span once full; Dropped counts overwrites. Safe for concurrent use.
type Buffer struct {
	mu      sync.Mutex
	spans   []Span
	next    int
	full    bool
	dropped int64
}

// DefaultBufferCapacity is the per-node span ring size when the caller
// does not choose one.
const DefaultBufferCapacity = 4096

// NewBuffer returns a ring holding up to capacity spans (<= 0 selects
// DefaultBufferCapacity).
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = DefaultBufferCapacity
	}
	return &Buffer{spans: make([]Span, capacity)}
}

// Record appends one span, evicting the oldest if the ring is full.
func (b *Buffer) Record(s Span) {
	b.mu.Lock()
	if b.full {
		b.dropped++
	}
	b.spans[b.next] = s
	b.next++
	if b.next == len(b.spans) {
		b.next = 0
		b.full = true
	}
	b.mu.Unlock()
}

// Snapshot returns the buffered spans in record order.
func (b *Buffer) Snapshot() []Span {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.full {
		return append([]Span(nil), b.spans[:b.next]...)
	}
	out := make([]Span, 0, len(b.spans))
	out = append(out, b.spans[b.next:]...)
	out = append(out, b.spans[:b.next]...)
	return out
}

// Len returns the number of buffered spans.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.full {
		return len(b.spans)
	}
	return b.next
}

// Dropped returns how many spans were evicted to make room.
func (b *Buffer) Dropped() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}
