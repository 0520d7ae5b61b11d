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

// SetObserver installs (or removes, with nil) the node's observer. Must be
// called on the node's logical thread, normally before Start.
func (n *Node) SetObserver(o Observer) { n.obs = o }

// observe stamps the recording node onto s and reports it. Callers guard
// with n.obs != nil.
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
