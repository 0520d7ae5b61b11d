package core

import (
	"time"

	"gocast/internal/store"
)

// Message is the union of all GoCast protocol messages. WireSize returns an
// approximate serialized size in bytes, used by the link-stress experiments
// to account traffic on underlay links.
type Message interface {
	Kind() MsgKind
	WireSize() int
}

// MsgKind enumerates protocol message types.
type MsgKind uint8

// Message kinds.
const (
	KindJoinRequest MsgKind = iota + 1
	KindJoinReply
	KindPing
	KindPong
	KindAddRequest
	KindAddReply
	KindDrop
	KindRebalance
	KindRebalanceReply
	KindGossip
	KindPullRequest
	KindMulticast
	KindTreeAdvert
	KindTreeParent
	KindTreeAdvertReq
	KindSyncRequest
	KindSyncReply
	KindPullMiss
	KindSymbol
	KindSymbolPull

	// NumMsgKinds bounds the kinds: every MsgKind is below it, so tables
	// indexed by kind have NumMsgKinds entries.
	NumMsgKinds
)

const (
	entryWire  = 20 // id + incarnation + addr ref + landmark vector, approximate
	headerWire = 8  // kind + sender + framing, approximate
	obitWire   = 8  // id + incarnation
	hopWire    = 10 // trace hop context: flags + hop count + origin stamp
)

// Hop is the per-message trace context carried by payload-bearing wire
// messages (Multicast, GossipID, SyncItem, Symbol). For unsampled
// messages — the overwhelming majority — it is all zeros and costs one
// branch on the receive path. When a multicast is sampled for
// dissemination tracing, Sampled is set at the origin and every node
// that stores the message re-stamps outgoing copies with its own hop
// count + 1, so receivers know their overlay depth and record trace
// spans (see internal/dtrace).
type Hop struct {
	// Sampled marks the message as traced; nodes holding a span observer
	// record spans for it.
	Sampled bool
	// Hops is how many overlay hops the carrying message has traveled
	// when it arrives: 1 on a copy sent by the origin, each relay stamps
	// its own arrival count plus one.
	Hops uint8
	// Origin is the origin node's clock at inject, meaningful where
	// clocks are comparable (netsim virtual time); live stitching relies
	// on the skew-free Age instead.
	Origin time.Duration
}

// Degrees is the sender's current degree information, piggybacked on most
// messages so neighbors can evaluate the maintenance conditions (Section
// 2.2) without extra round trips.
type Degrees struct {
	Rand int16
	Near int16
	// MaxNearbyRTT is the largest RTT between the sender and its nearby
	// neighbors (condition C3); zero when it has none.
	MaxNearbyRTT time.Duration
}

func degreesWire() int { return 8 }

// JoinRequest asks a contact node for its membership view.
type JoinRequest struct {
	From Entry
}

func (*JoinRequest) Kind() MsgKind { return KindJoinRequest }
func (m *JoinRequest) WireSize() int {
	return headerWire + entryWire
}

// JoinReply returns the contact's member list and the landmark set.
type JoinReply struct {
	Members   []Entry
	Landmarks []Entry
	Root      NodeID
}

func (*JoinReply) Kind() MsgKind { return KindJoinReply }
func (m *JoinReply) WireSize() int {
	return headerWire + entryWire*(len(m.Members)+len(m.Landmarks)) + 4
}

// Ping measures RTT and requests the target's degree information
// (datagram; works between non-neighbors).
type Ping struct {
	From  Entry
	Nonce uint32
}

func (*Ping) Kind() MsgKind { return KindPing }
func (*Ping) WireSize() int { return headerWire + entryWire + 4 }

// Pong answers a Ping with the responder's degrees.
type Pong struct {
	From    Entry
	Nonce   uint32
	Degrees Degrees
}

func (*Pong) Kind() MsgKind { return KindPong }
func (*Pong) WireSize() int { return headerWire + entryWire + 4 + degreesWire() }

// AddRequest asks the receiver to become the sender's neighbor over a link
// of the given kind. RTT is the sender-measured round-trip time of the
// prospective link so the receiver can evaluate condition C3 and cache the
// link latency.
type AddRequest struct {
	From     Entry
	LinkKind LinkKind
	RTT      time.Duration
	Degrees  Degrees
	// ForRebalance marks links created by the random-degree rebalancing
	// operation (Section 2.2.2, operation 1).
	ForRebalance bool
}

func (*AddRequest) Kind() MsgKind { return KindAddRequest }
func (*AddRequest) WireSize() int { return headerWire + entryWire + 1 + 8 + degreesWire() + 1 }

// AddReply accepts or rejects an AddRequest.
type AddReply struct {
	From         Entry
	LinkKind     LinkKind
	Accepted     bool
	RTT          time.Duration
	Degrees      Degrees
	ForRebalance bool
}

func (*AddReply) Kind() MsgKind { return KindAddReply }
func (*AddReply) WireSize() int { return headerWire + entryWire + 2 + 8 + degreesWire() + 1 }

// Drop tears down the overlay link between sender and receiver. Departing
// marks a graceful leave: the receiver records an obituary so the departed
// member is quarantined, not just unlinked, and the obituary spreads to the
// rest of the group via gossip piggyback.
type Drop struct {
	Degrees   Degrees
	Departing bool
}

func (*Drop) Kind() MsgKind { return KindDrop }
func (*Drop) WireSize() int { return headerWire + degreesWire() + 1 }

// Rebalance implements operation 1 of random-degree maintenance: X (the
// sender) asks its random neighbor Y (the receiver) to establish a random
// link to Z (Target); on success X drops its links to both Y and Z,
// reducing X's random degree by two without changing Y's or Z's.
type Rebalance struct {
	Target Entry
}

func (*Rebalance) Kind() MsgKind { return KindRebalance }
func (*Rebalance) WireSize() int { return headerWire + entryWire }

// RebalanceReply reports whether Y established the link to Target.
type RebalanceReply struct {
	Target NodeID
	OK     bool
}

func (*RebalanceReply) Kind() MsgKind { return KindRebalanceReply }
func (*RebalanceReply) WireSize() int { return headerWire + 5 }

// GossipID is one message summary inside a gossip: the message ID plus the
// estimated time elapsed since the message was injected, which receivers
// use to delay pulls until the message had a chance to arrive via the tree.
type GossipID struct {
	ID  MessageID
	Age time.Duration
	// Hop carries the trace context so pull-path recovery of sampled
	// messages stays traceable end to end.
	Hop Hop
}

// Gossip is the periodic summary a node sends to one overlay neighbor
// (round-robin, every GossipPeriod). It carries the IDs of messages
// received since the last gossip to that neighbor (excluding those heard
// from it), a sample of membership entries, and the sender's degrees. It
// also serves as a keepalive on the link.
type Gossip struct {
	IDs     []GossipID
	Members []Entry
	Degrees Degrees
	// Obits piggybacks the sender's active departure obituaries so
	// quarantine of gracefully-departed members spreads epidemically rather
	// than staying neighbor-local.
	Obits []Obituary
	// Syms advertises the sender's symbol-granular (coopcast) messages:
	// the coding geometry plus a bitmap of the symbols it holds, so
	// receivers can pull exactly the symbols they miss.
	Syms []SymbolAdvert
}

func (*Gossip) Kind() MsgKind { return KindGossip }
func (m *Gossip) WireSize() int {
	return headerWire + (12+hopWire)*len(m.IDs) + entryWire*len(m.Members) + degreesWire() +
		obitWire*len(m.Obits) + symAdvertWire*len(m.Syms)
}

// Obituary announces that a specific incarnation of a node is dead or has
// departed; receivers quarantine entries at or below that incarnation for
// QuarantineWindow so stale gossip cannot resurrect the member.
type Obituary struct {
	ID  NodeID
	Inc uint32
}

// PullRequest asks the receiver (a gossip sender) for the payloads of
// messages the sender has not received.
type PullRequest struct {
	IDs []MessageID
}

func (*PullRequest) Kind() MsgKind   { return KindPullRequest }
func (m *PullRequest) WireSize() int { return headerWire + 8*len(m.IDs) }

// Multicast carries a multicast message payload, either forwarded along a
// tree link or served in response to a PullRequest.
type Multicast struct {
	ID MessageID
	// Age is the estimated time elapsed since the message was injected at
	// its source, accumulated hop by hop.
	Age     time.Duration
	Payload []byte
	// ViaTree is true for unconditional tree forwarding, false for pull
	// responses.
	ViaTree bool
	// Hop is the dissemination trace context (zero unless sampled).
	Hop Hop
}

func (*Multicast) Kind() MsgKind   { return KindMulticast }
func (m *Multicast) WireSize() int { return headerWire + 8 + 8 + 1 + hopWire + len(m.Payload) }

// TreeAdvert propagates root distance information. The root floods a new
// Wave every heartbeat period; every node adopts as parent the neighbor
// offering the lowest latency path to the root and re-advertises. Epochs
// order root takeovers.
type TreeAdvert struct {
	Root  NodeID
	Epoch uint32
	Wave  uint32
	// Dist is the advertised latency from the sender to the root.
	Dist time.Duration
}

func (*TreeAdvert) Kind() MsgKind { return KindTreeAdvert }
func (*TreeAdvert) WireSize() int { return headerWire + 4 + 4 + 4 + 8 }

// TreeParent tells a neighbor it became (On) or stopped being (Off) the
// sender's tree parent, maintaining the receiver's children set.
type TreeParent struct {
	On bool
}

func (*TreeParent) Kind() MsgKind { return KindTreeParent }
func (*TreeParent) WireSize() int { return headerWire + 1 }

// TreeAdvertReq asks a neighbor for its current tree advertisement; sent
// by a node whose parent link vanished, so it can re-attach without
// waiting for the next heartbeat wave (a DVMRP-style triggered update).
type TreeAdvertReq struct{}

func (*TreeAdvertReq) Kind() MsgKind { return KindTreeAdvertReq }
func (*TreeAdvertReq) WireSize() int { return headerWire }

// SyncRequest opens one round of anti-entropy reconciliation: the sender
// summarizes its message store as per-source [low, high] sequence
// watermarks and asks the receiver for everything it holds beyond them.
// Sent on rejoin, on partition heal (new overlay link), periodically at
// low frequency between overlay neighbors, and as the fallback after an
// expired pull.
type SyncRequest struct {
	Ranges []store.SourceRange
}

func (*SyncRequest) Kind() MsgKind   { return KindSyncRequest }
func (m *SyncRequest) WireSize() int { return headerWire + 12*len(m.Ranges) }

// SyncItem is one recovered message inside a SyncReply.
type SyncItem struct {
	ID      MessageID
	Age     time.Duration
	Payload []byte
	// Hop is the dissemination trace context (zero unless sampled).
	Hop Hop
}

// SyncReply returns the payloads the requester's digest was missing,
// bounded per reply by the responder's SyncBatchBytes budget. More marks a
// truncated batch: the requester issues a fresh SyncRequest (its digest
// now advanced) until a reply arrives with More unset, which paces the
// transfer request-by-request. Symbol-granular (coopcast) messages are
// paged symbol by symbol through Syms under the same byte budget, so
// catch-up transfers stop at symbol granularity instead of whole payloads.
type SyncReply struct {
	Items []SyncItem
	Syms  []Symbol
	More  bool
}

func (*SyncReply) Kind() MsgKind { return KindSyncReply }
func (m *SyncReply) WireSize() int {
	n := headerWire + 1
	for _, it := range m.Items {
		n += 8 + 8 + 4 + hopWire + len(it.Payload)
	}
	for i := range m.Syms {
		n += symbolWire + len(m.Syms[i].Data)
	}
	return n
}

// PullMiss answers the part of a PullRequest the responder can no longer
// serve — IDs whose payload was reclaimed, evicted, or never held. An
// explicit miss lets the puller advance to another holder immediately (or
// fall back to sync) instead of waiting out its retry timer.
type PullMiss struct {
	IDs []MessageID
}

func (*PullMiss) Kind() MsgKind   { return KindPullMiss }
func (m *PullMiss) WireSize() int { return headerWire + 8*len(m.IDs) }

const (
	// symbolWire is a Symbol's fixed overhead: ID + age + index/K/N +
	// payload length + data length prefix + via-tree flag + trace hop
	// context, approximate.
	symbolWire = 8 + 8 + 6 + 4 + 4 + 1 + hopWire
	// symAdvertWire is one SymbolAdvert: ID + age + geometry + bitmap.
	symAdvertWire = 8 + 8 + 8 + 8*store.SymbolWords
)

// Symbol carries one erasure-coded symbol of a coopcast (bulk) message —
// pushed down a tree link (ViaTree), served in response to a SymbolPull,
// or paged inside a SyncReply. Indexes below K are systematic source
// symbols; the rest are repair symbols. Every holder derives the uniform
// symbol size as ceil(PayloadLen/K); it is never transmitted.
type Symbol struct {
	ID MessageID
	// Age is the estimated time since the message was injected at its
	// source, accumulated hop by hop like Multicast.Age.
	Age        time.Duration
	Index      uint16
	K, N       uint16
	PayloadLen uint32
	Data       []byte
	ViaTree    bool
	// Hop is the dissemination trace context (zero unless sampled).
	Hop Hop
}

func (*Symbol) Kind() MsgKind   { return KindSymbol }
func (m *Symbol) WireSize() int { return headerWire + symbolWire + len(m.Data) }

// SymbolPull asks a holder (learned from a gossip SymbolAdvert) for the
// Want-marked symbols of one coopcast message. Unlike PullRequest, which
// fetches whole payloads, a symbol pull transfers only the missing
// fraction — repair cost is per-symbol, not per-payload.
type SymbolPull struct {
	ID   MessageID
	Want store.SymbolSet
}

func (*SymbolPull) Kind() MsgKind   { return KindSymbolPull }
func (m *SymbolPull) WireSize() int { return headerWire + 8 + 8*store.SymbolWords }

// SymbolAdvert is one coopcast entry in a gossip summary: the message's
// coding geometry plus the bitmap of symbols the sender currently holds.
// Incomplete holders re-advertise every round (their bitmap grows), so
// neighbors always know where to pull missing symbols from.
type SymbolAdvert struct {
	ID         MessageID
	Age        time.Duration
	K, N       uint16
	PayloadLen uint32
	Have       store.SymbolSet
}
