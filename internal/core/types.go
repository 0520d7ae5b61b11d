// Package core implements the GoCast protocol (Tang, Chang, Ward — DSN
// 2005): a proximity-aware, degree-constrained overlay; an efficient
// latency-based multicast tree embedded in the overlay; and gossip-enhanced
// dissemination in which multicast messages propagate unconditionally along
// tree links while message-ID summaries are gossiped between overlay
// neighbors so that nodes can pull messages lost to tree disruptions.
//
// A Node is a single-threaded state machine driven entirely through the Env
// interface: the discrete-event simulator (internal/netsim) and the
// real-time runtime (internal/live) both drive the same code.
package core

import (
	"fmt"
	"time"
)

// NodeID identifies a node. IDs are assigned by the deployment (the
// simulator uses dense indexes; the live runtime assigns them at join).
type NodeID int32

// None is the absent-node sentinel (e.g. "no parent").
const None NodeID = -1

// Entry is a partial-membership record: enough information to contact a
// node and to estimate its network distance without measuring it. It is
// 32 bytes and copies without allocating: the landmark vector is shared.
type Entry struct {
	ID NodeID
	// Inc is the node's incarnation number, bumped every time the node
	// restarts under the same ID. Entries with a higher incarnation always
	// supersede lower ones; messages and links carrying a lower incarnation
	// than the best known one belong to a dead past life and are rejected.
	Inc uint32
	// Addr is the node's transport address; unused in simulation.
	Addr string
	// Landmarks holds the node's measured RTTs to the system landmarks,
	// used for triangulated latency estimation. Nil if the node has not
	// yet measured them.
	Landmarks *LandmarkVec
}

// LandmarkVec is a node's measured RTTs to the system landmarks in
// milliseconds. A vector is immutable once built: every Entry copy shares
// it by pointer, and a node whose measurements change builds a new one,
// so two entries hold the same measurements whenever they hold the same
// pointer.
type LandmarkVec struct {
	ms []uint16
}

// NewLandmarkVec returns a vector holding a copy of ms, or nil if ms is
// empty.
func NewLandmarkVec(ms ...uint16) *LandmarkVec {
	if len(ms) == 0 {
		return nil
	}
	return &LandmarkVec{ms: append([]uint16(nil), ms...)}
}

// Len returns the number of landmarks in the vector; 0 for nil.
func (v *LandmarkVec) Len() int {
	if v == nil {
		return 0
	}
	return len(v.ms)
}

// At returns the RTT to landmark i in milliseconds (0 = unmeasured).
func (v *LandmarkVec) At(i int) uint16 { return v.ms[i] }

// MessageID uniquely identifies a multicast message: the injecting node's
// ID plus a sequence number local to that node.
type MessageID struct {
	Source NodeID
	Seq    uint32
}

func (m MessageID) String() string { return fmt.Sprintf("%d/%d", m.Source, m.Seq) }

// LinkKind distinguishes the two classes of overlay links.
type LinkKind uint8

const (
	// Random links connect randomly chosen neighbors; they provide the
	// long-range connectivity that keeps remote clusters attached.
	Random LinkKind = iota + 1
	// Nearby links are chosen by network proximity; they carry most
	// traffic and keep latency low.
	Nearby
)

func (k LinkKind) String() string {
	switch k {
	case Random:
		return "random"
	case Nearby:
		return "nearby"
	default:
		return fmt.Sprintf("LinkKind(%d)", uint8(k))
	}
}

// TimerCanceller cancels scheduled callbacks by handle. Substrates
// implement it once (e.g. *sim.Engine satisfies it directly), so a Timer
// is two words and creating one allocates nothing.
type TimerCanceller interface {
	// CancelTimer cancels the callback identified by id, reporting whether
	// it prevented the callback from running.
	CancelTimer(id uint64) bool
}

// Timer is a cancellable scheduled callback provided by the Env. It is a
// small value — copy it freely. The zero Timer is inert: Stop reports
// false, so owners need no nil checks.
type Timer struct {
	c  TimerCanceller
	id uint64
}

// MakeTimer binds a substrate canceller and its handle into a Timer.
func MakeTimer(c TimerCanceller, id uint64) Timer { return Timer{c: c, id: id} }

// Stop cancels the timer, reporting whether it prevented the callback.
func (t Timer) Stop() bool {
	if t.c == nil {
		return false
	}
	return t.c.CancelTimer(t.id)
}

// Env is the substrate a Node runs on. Implementations must deliver all
// callbacks (message handling, timer callbacks) on a single logical thread
// per node; Node performs no internal locking.
type Env interface {
	// Now returns the current time on this substrate's clock.
	Now() time.Duration
	// Send delivers m to the given node over the reliable channel
	// (pre-established TCP connections between overlay neighbors in the
	// paper). Sends to unreachable nodes are dropped; the substrate may
	// later surface the breakage via Node.PeerDown.
	Send(to NodeID, m Message)
	// SendDatagram delivers m best-effort (UDP in the paper), used for
	// communication between non-neighbors such as RTT probes.
	SendDatagram(to NodeID, m Message)
	// After schedules fn to run after d on this node's event loop.
	After(d time.Duration, fn func()) Timer
	// Rand returns a uniform random value in [0, n). Substrates seed this
	// deterministically in simulation.
	Rand(n int) int
	// Learn tells the substrate about another node's contact information
	// (needed by live transports to resolve NodeIDs to addresses).
	Learn(e Entry)
}

// MessagePool is an optional Env capability: substrates that recycle the
// high-volume wire structs (the simulator releases a message back to its
// pool once HandleMessage returns) implement it so the dissemination hot
// path allocates no message structs in steady state. Pooled structs come
// back with their slice fields truncated to zero length but with capacity
// retained; the node appends into them. Envs without the capability fall
// back to plain allocation.
type MessagePool interface {
	GetGossip() *Gossip
	GetMulticast() *Multicast
	GetPullRequest() *PullRequest
}

// ControlPool is an optional Env capability beside MessagePool, for the
// control kinds the overlay sends on every probe and maintenance step:
// Ping, Pong, AddRequest, AddReply, Drop, Rebalance, RebalanceReply,
// TreeAdvert, TreeParent and SyncRequest. Reuse returns a struct of kind
// k that the substrate took back after delivering it, or nil when it holds
// none; the node then allocates. The node builds every struct of a kind
// it asks for through Reuse, so a substrate that takes back only the
// kinds it was asked for never accumulates a kind the node allocates
// itself. The node overwrites every field of a reused struct, except
// that a SyncRequest keeps its Ranges capacity. Envs without the
// capability (the live runtime's) allocate every struct.
type ControlPool interface {
	Reuse(k MsgKind) Message
}

// msgPtr is a pointer to a message struct.
type msgPtr[T any] interface {
	*T
	Message
}

// reuse returns a struct of P's kind from the env's ControlPool, or a new
// one. Its fields hold whatever the last delivery left in them.
func reuse[T any, P msgPtr[T]](n *Node) P {
	if n.ctlPool != nil {
		if m := n.ctlPool.Reuse(P(nil).Kind()); m != nil {
			return m.(P)
		}
	}
	return new(T)
}

// ctl returns control message v in a reused struct where the env recycles
// them. After env.Send the struct belongs to the substrate.
func ctl[T any, P msgPtr[T]](n *Node, v T) P {
	p := reuse[T, P](n)
	*p = v
	return p
}
