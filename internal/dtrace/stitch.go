package dtrace

import (
	"sort"
	"time"
)

// Delivery is one node's receipt of a traced message, with the latency
// attribution the stitcher derived from that node's spans.
type Delivery struct {
	Node int32 `json:"node"`
	// From is the peer that handed the message over (-1 at the origin;
	// for FEC deliveries, the peer that sent the first symbol).
	From int32 `json:"from"`
	// Via classifies the delivery path: "inject", "tree", "pull",
	// "sync", or "fec".
	Via string `json:"via"`
	// Hops is the overlay hop count the message traveled to reach here.
	Hops int `json:"hops"`
	// At is the delivery instant on the receiving node's clock (netsim:
	// comparable across nodes; live: per-node only).
	At time.Duration `json:"at"`
	// Age is the protocol's skew-free age estimate at delivery — the
	// cross-substrate latency attribution.
	Age time.Duration `json:"age"`
	// Wait is advert→pull-request time and RTT is request→reply time.
	// RTT is set only for pull deliveries; an FEC delivery that pulled
	// symbols has Wait too: first news of the message → first symbol
	// pull, the time it sat waiting for a holder to advertise.
	Wait time.Duration `json:"wait,omitempty"`
	RTT  time.Duration `json:"rtt,omitempty"`
	// Attempts counts pull requests (for FEC deliveries, symbol pulls)
	// sent before this delivery.
	Attempts int `json:"attempts,omitempty"`
	// Symbols and Assembly describe FEC deliveries: symbols held at
	// decode and first-symbol→decode time.
	Symbols  int           `json:"symbols,omitempty"`
	Assembly time.Duration `json:"assembly,omitempty"`

	// Children are the deliveries this node caused, sorted by node ID.
	// Excluded from JSON: the flat Deliveries list plus From encodes the
	// same tree without duplication.
	Children []*Delivery `json:"-"`
}

// MessageTrace is one message's stitched dissemination tree.
type MessageTrace struct {
	Src int32  `json:"src"`
	Seq uint32 `json:"seq"`
	// Deliveries is the flat list, sorted by node ID.
	Deliveries []*Delivery `json:"deliveries"`
	// Root is the inject delivery (nil when the origin's spans are
	// missing). Orphans are deliveries whose sender recorded no
	// delivery span (buffer eviction, unsampled node, missing fetch).
	Root    *Delivery   `json:"-"`
	Orphans []*Delivery `json:"-"`
}

// Counts tallies deliveries by path class (the inject itself is not
// counted).
func (t *MessageTrace) Counts() (tree, pull, sync, fec int) {
	for _, d := range t.Deliveries {
		switch d.Via {
		case "tree":
			tree++
		case "pull":
			pull++
		case "sync":
			sync++
		case "fec":
			fec++
		}
	}
	return
}

// MaxHops returns the largest hop count across deliveries.
func (t *MessageTrace) MaxHops() int {
	max := 0
	for _, d := range t.Deliveries {
		if d.Hops > max {
			max = d.Hops
		}
	}
	return max
}

// Find returns the trace for message src/seq, or nil.
func Find(traces []*MessageTrace, src int32, seq uint32) *MessageTrace {
	for _, t := range traces {
		if t.Src == src && t.Seq == seq {
			return t
		}
	}
	return nil
}

// msgKey groups spans by message.
type msgKey struct {
	src int32
	seq uint32
}

// Stitch groups spans by message and reconstructs each message's
// dissemination tree with per-delivery latency attribution. The input
// may mix spans from many nodes in any order; output is deterministic
// for a given span multiset (messages sorted by source then sequence,
// deliveries and children by node ID).
func Stitch(spans []Span) []*MessageTrace {
	// Sort a copy so grouping and per-node span order are input-order
	// independent.
	ss := append([]Span(nil), spans...)
	sort.Slice(ss, func(i, j int) bool {
		a, b := ss[i], ss[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Aux < b.Aux
	})

	var out []*MessageTrace
	for lo := 0; lo < len(ss); {
		hi := lo
		key := msgKey{ss[lo].Src, ss[lo].Seq}
		for hi < len(ss) && ss[hi].Src == key.src && ss[hi].Seq == key.seq {
			hi++
		}
		out = append(out, stitchOne(key, ss[lo:hi]))
		lo = hi
	}
	return out
}

// stitchOne builds one message's trace from its spans (sorted by node).
func stitchOne(key msgKey, spans []Span) *MessageTrace {
	t := &MessageTrace{Src: key.src, Seq: key.seq}
	for lo := 0; lo < len(spans); {
		hi := lo
		node := spans[lo].Node
		for hi < len(spans) && spans[hi].Node == node {
			hi++
		}
		if d := stitchNode(spans[lo:hi]); d != nil {
			t.Deliveries = append(t.Deliveries, d)
		}
		lo = hi
	}
	sort.Slice(t.Deliveries, func(i, j int) bool { return t.Deliveries[i].Node < t.Deliveries[j].Node })

	// Link the tree: each non-inject delivery hangs off the delivery
	// record of the peer it came from; unresolvable senders orphan.
	byNode := make(map[int32]*Delivery, len(t.Deliveries))
	for _, d := range t.Deliveries {
		byNode[d.Node] = d
		if d.Via == "inject" && t.Root == nil {
			t.Root = d
		}
	}
	for _, d := range t.Deliveries {
		if d == t.Root {
			continue
		}
		if p := byNode[d.From]; p != nil && p != d {
			p.Children = append(p.Children, d)
		} else {
			t.Orphans = append(t.Orphans, d)
		}
	}
	return t
}

// stitchNode condenses one node's spans for one message into a Delivery
// (nil when the node recorded waypoints but never a delivery).
func stitchNode(spans []Span) *Delivery {
	var deliver *Span
	var advert *Span
	var firstPull, lastPull *Span
	var firstSymbol *Span
	pulls := 0
	symbols := 0
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Kind.DeliveryKind():
			if deliver == nil {
				deliver = s
			}
		case s.Kind == KindAdvert:
			if advert == nil {
				advert = s
			}
		case s.Kind == KindPull:
			pulls++
			if firstPull == nil {
				firstPull = s
			}
			lastPull = s
		case s.Kind == KindSymbolTree || s.Kind == KindSymbolPull:
			symbols++
			if firstSymbol == nil {
				firstSymbol = s
			}
		}
	}
	if deliver == nil {
		return nil
	}
	d := &Delivery{
		Node: deliver.Node,
		From: deliver.From,
		Hops: int(deliver.Hops),
		At:   deliver.End,
		Age:  deliver.Age,
	}
	switch deliver.Kind {
	case KindInject:
		d.Via = "inject"
	case KindTreeDeliver:
		d.Via = "tree"
	case KindPullDeliver:
		d.Via = "pull"
		d.RTT = deliver.End - deliver.Start
		if firstPull != nil {
			d.Wait = firstPull.End - firstPull.Start
		}
		d.Attempts = pulls
		if d.Attempts == 0 && lastPull == nil {
			d.Attempts = 1
		}
	case KindSyncDeliver:
		d.Via = "sync"
	case KindReassembly:
		d.Via = "fec"
		d.Symbols = symbols
		if deliver.Aux > 0 {
			d.Symbols = int(deliver.Aux)
		}
		d.Assembly = deliver.End - deliver.Start
		if firstPull != nil {
			d.Wait = firstPull.End - firstPull.Start
			d.Attempts = pulls
		}
		if firstSymbol != nil {
			d.From = firstSymbol.From
			d.Hops = int(firstSymbol.Hops)
		}
	}
	return d
}
