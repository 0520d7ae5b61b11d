package core

import (
	"time"

	"gocast/internal/dtrace"
)

// Observer receives a node's protocol telemetry: one dtrace.Span per
// fact, whose Kind says what happened (see the dtrace.Kind constants for
// each kind's fields). A nil observer (the default) costs a single
// nil-check per fact. Dissemination-trace spans of sampled messages (see
// Config.TraceSampleEvery) arrive with Sampled set; the waypoint kinds
// (advert, symbol receipt) are produced only for those.
//
// Observe runs on the node's logical thread and must not call back into
// the node.
type Observer interface {
	Observe(s dtrace.Span)
}

// KindFilter is an optional Observer capability: an observer that keeps
// only some kinds of record says which, and the node then neither builds
// nor dispatches records of the other kinds. SetObserver asks Wants once
// per kind; an observer without the capability gets every kind.
type KindFilter interface {
	Wants(k dtrace.Kind) bool
}

// SetObserver installs (or removes, with nil) the node's observer. Must be
// called on the node's logical thread, normally before Start.
func (n *Node) SetObserver(o Observer) {
	n.obs, n.obsKinds = o, 0
	if o == nil {
		return
	}
	f, _ := o.(KindFilter)
	for k := range 64 {
		if f == nil || f.Wants(dtrace.Kind(k)) {
			n.obsKinds |= 1 << k
		}
	}
}

// emits reports whether the observer takes records of kind k: a single
// branch when it does not.
func (n *Node) emits(k dtrace.Kind) bool { return n.obsKinds&(1<<k) != 0 }

// observe stamps the recording node onto s and reports it. Callers guard
// with n.emits(s.Kind).
func (n *Node) observe(s dtrace.Span) {
	s.Node = int32(n.id)
	n.obs.Observe(s)
}

// msgSpan is the record of one message event at this node: kind, message,
// counterparty, hop count, age and whether it is a trace span of a
// sampled message, stamped now. Callers fill in the kind-specific fields.
func (n *Node) msgSpan(kind dtrace.Kind, id MessageID, from NodeID, hops uint8, age time.Duration, sampled bool) dtrace.Span {
	now := n.env.Now()
	return dtrace.Span{
		Src:     int32(id.Source),
		Seq:     id.Seq,
		From:    int32(from),
		Kind:    kind,
		Hops:    hops,
		Sampled: sampled,
		Start:   now,
		End:     now,
		Age:     age,
	}
}
