package core

import (
	"sort"
	"time"
)

// RTT measurement and triangulated latency estimation.
//
// Real RTTs are measured with Ping/Pong datagrams (one measurement per
// maintenance cycle during the replacement sweep, per Section 2.2.3).
// Cheap estimates use the triangular heuristic the paper cites [13]:
// every node measures its RTT to a small set of landmark nodes once;
// membership entries carry the resulting vector; the estimate for a pair
// is the midpoint of the triangle-inequality bounds their vectors imply.

// pingPurpose says why a ping was sent, so the pong resumes the right
// operation.
type pingPurpose uint8

const (
	pingProbeReplace pingPurpose = iota + 1
	pingProbeAddNearby
	pingProbeAddRandom
	pingMeasureLink
	pingLandmark
)

type pingCtx struct {
	nonce    uint32
	target   NodeID
	purpose  pingPurpose
	sentAt   time.Duration
	landmark int // index into landmarks for pingLandmark
}

// SetLandmarks installs the landmark set used for latency estimation.
func (n *Node) SetLandmarks(ls []Entry) {
	n.landmarks = append([]Entry(nil), ls...)
	n.landVec = make([]uint16, len(ls))
	n.selfLmOK = false
	for _, e := range ls {
		n.learnEntry(e)
	}
}

// Landmarks returns the installed landmark set.
func (n *Node) Landmarks() []Entry { return append([]Entry(nil), n.landmarks...) }

// measureLandmarks pings each landmark once to build this node's vector.
func (n *Node) measureLandmarks() {
	for i, lm := range n.landmarks {
		if lm.ID == n.id {
			n.landVec[i] = 1 // RTT to self: local loopback, ~1 ms
			n.selfLmOK = false
			continue
		}
		n.sendPing(lm.ID, pingCtx{target: lm.ID, purpose: pingLandmark, landmark: i})
	}
}

// landmarksReady reports whether enough of the landmark vector has been
// measured to produce estimates (at least half).
func (n *Node) landmarksReady() bool {
	if len(n.landVec) == 0 {
		return false
	}
	got := 0
	for _, v := range n.landVec {
		if v > 0 {
			got++
		}
	}
	return got*2 >= len(n.landVec)
}

// estimateRTT estimates the RTT to a node from landmark vectors using the
// triangular heuristic: for every landmark i, |a_i - b_i| is a lower bound
// and a_i + b_i an upper bound on the pair RTT; the estimate is the
// midpoint of the tightest bounds. Nodes without vectors sort last.
func (n *Node) estimateRTT(e Entry) time.Duration {
	const unknown = time.Hour
	if len(e.Landmarks) == 0 || len(n.landVec) == 0 {
		return unknown
	}
	lower, upper := int64(0), int64(1<<62)
	found := false
	m := len(n.landVec)
	if len(e.Landmarks) < m {
		m = len(e.Landmarks)
	}
	for i := 0; i < m; i++ {
		a, b := int64(n.landVec[i]), int64(e.Landmarks[i])
		if a == 0 || b == 0 {
			continue
		}
		found = true
		lo := a - b
		if lo < 0 {
			lo = -lo
		}
		if lo > lower {
			lower = lo
		}
		if hi := a + b; hi < upper {
			upper = hi
		}
	}
	if !found {
		return unknown
	}
	if upper < lower {
		upper = lower
	}
	return time.Duration((lower+upper)/2) * time.Millisecond
}

// sendPing issues a datagram ping and registers its context. Nonces
// increase and send times never decrease, so n.pings stays sorted by both.
func (n *Node) sendPing(to NodeID, ctx pingCtx) {
	n.pingNonce++
	ctx.nonce = n.pingNonce
	ctx.sentAt = n.env.Now()
	n.pings = append(n.pings, ctx)
	n.stats.PingsSent++
	n.env.SendDatagram(to, &Ping{From: n.selfEntry(), Nonce: n.pingNonce})
}

// handlePing answers with the node's degrees; pings also spread contact
// information.
func (n *Node) handlePing(from NodeID, m *Ping) {
	if n.staleSender(m.From) {
		return // no pong for a dead past life
	}
	n.learnEntry(m.From)
	n.env.SendDatagram(from, &Pong{From: n.selfEntry(), Nonce: m.Nonce, Degrees: n.degrees()})
}

// handlePong records the measured RTT and resumes the operation that
// triggered the ping.
func (n *Node) handlePong(from NodeID, m *Pong) {
	if n.staleSender(m.From) {
		return
	}
	// The pong must answer a ping to its sender and carry the sender's own
	// entry: a mismatched entry (a None ID, say) would otherwise reach the
	// add paths below as a link candidate.
	i := n.findPing(m.Nonce)
	if i < 0 || n.pings[i].target != from || m.From.ID != from {
		return
	}
	ctx := n.pings[i]
	n.pings = append(n.pings[:i], n.pings[i+1:]...)
	rtt := n.env.Now() - ctx.sentAt
	if rtt <= 0 {
		rtt = time.Millisecond
	}
	n.rtt.put(from, rtt)
	n.lastPong.put(from, n.env.Now())
	n.learnEntry(m.From)
	if nb := n.neighbors.get(from); nb != nil {
		nb.deg = m.Degrees
		nb.degKnown = true
		if ctx.purpose == pingMeasureLink || nb.rtt == 0 {
			nb.rtt = rtt
			n.degCacheOK = false
		}
	}
	switch ctx.purpose {
	case pingLandmark:
		if ctx.landmark < len(n.landVec) {
			ms := rtt / time.Millisecond
			if ms < 1 {
				ms = 1
			}
			if ms > 0xffff {
				ms = 0xffff
			}
			n.landVec[ctx.landmark] = uint16(ms)
			n.selfLmOK = false
		}
	case pingProbeReplace:
		n.resumeReplace(m.From, rtt, m.Degrees)
	case pingProbeAddNearby:
		n.resumeAddNearby(m.From, rtt, m.Degrees)
	case pingProbeAddRandom:
		n.resumeAddRandom(m.From, rtt, m.Degrees)
	case pingMeasureLink:
		// RTT already recorded above.
	}
}

// findPing returns the index of the outstanding ping with this nonce, or
// -1. The slice is in nonce order; comparing offsets from the oldest
// nonce keeps the search correct across a nonce wrap.
func (n *Node) findPing(nonce uint32) int {
	if len(n.pings) == 0 {
		return -1
	}
	base := n.pings[0].nonce
	i := sort.Search(len(n.pings), func(i int) bool { return n.pings[i].nonce-base >= nonce-base })
	if i < len(n.pings) && n.pings[i].nonce == nonce {
		return i
	}
	return -1
}

// expirePings drops ping contexts that never got a pong, and evicts the
// unresponsive target from the member view (it is likely dead). Every
// ping shares one timeout and send times follow nonce order, so the
// expired pings are a prefix of n.pings, already in nonce order.
func (n *Node) expirePings() {
	now := n.env.Now()
	k := 0
	for k < len(n.pings) && now-n.pings[k].sentAt > pingTimeout {
		k++
	}
	if k == 0 {
		return
	}
	// Nothing below sends a ping, so the prefix stays put while it is
	// processed.
	for i := 0; i < k; i++ {
		ctx := n.pings[i]
		if ctx.purpose == pingLandmark || ctx.purpose == pingMeasureLink {
			continue
		}
		// A ping swallowed by a transient fault (e.g. a partition that has
		// since healed) must not evict a member that answered a later ping.
		if last, _ := n.lastPong.get(ctx.target); last > ctx.sentAt {
			continue
		}
		if !n.neighbors.has(ctx.target) {
			// Quarantine locally so stale gossip cannot immediately
			// re-teach us the likely-dead entry (not spread: one lost
			// datagram is weak evidence).
			n.recordObit(ctx.target, n.knownInc(ctx.target), false)
		} else {
			n.forgetMember(ctx.target)
		}
	}
	n.pings = n.pings[:copy(n.pings, n.pings[k:])]
}

const pingTimeout = 3 * time.Second
