// Package live runs GoCast nodes in real time: each node's protocol state
// machine (internal/core) is driven by a single mailbox goroutine, and
// messages travel over a pluggable Transport — an in-memory fabric for
// tests and in-process clusters, or TCP+UDP for real deployments.
package live

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"gocast/internal/core"
)

// Handler receives inbound messages. Implementations are called from
// transport goroutines and must not block for long.
type Handler func(from core.NodeID, m core.Message)

// FailureHandler is told that the reliable channel toward a node broke.
type FailureHandler func(peer core.NodeID)

// Transport moves protocol messages between live nodes.
type Transport interface {
	// Addr returns the endpoint's advertised address.
	Addr() string
	// Send delivers m reliably to the peer at addr; a broken channel is
	// reported through the failure handler (possibly asynchronously).
	Send(addr string, to core.NodeID, m core.Message)
	// SendDatagram delivers m best-effort.
	SendDatagram(addr string, to core.NodeID, m core.Message)
	// SetHandlers registers inbound and failure callbacks; must be called
	// before any traffic flows.
	SetHandlers(h Handler, f FailureHandler)
	// Close stops the endpoint.
	Close() error
}

// ErrClosed is returned by transports used after Close.
var ErrClosed = errors.New("live: transport closed")

// MemNetwork is an in-memory message fabric connecting MemTransport
// endpoints, with optional per-pair latency — handy for tests and for
// running sizable GoCast clusters inside one process.
type MemNetwork struct {
	mu      sync.Mutex
	eps     map[string]*MemTransport
	latency func(from, to string) time.Duration
	rng     *rand.Rand
}

// NewMemNetwork returns an empty fabric with the given base latency
// (plus up to 20% jitter). Zero latency delivers synchronously-ish via
// goroutines.
func NewMemNetwork(base time.Duration, seed int64) *MemNetwork {
	rng := rand.New(rand.NewSource(seed))
	n := &MemNetwork{
		eps: make(map[string]*MemTransport),
		rng: rng,
	}
	n.latency = func(from, to string) time.Duration {
		if base <= 0 {
			return 0
		}
		n.mu.Lock()
		j := n.rng.Int63n(int64(base)/5 + 1)
		n.mu.Unlock()
		return base + time.Duration(j)
	}
	return n
}

// SetLatency replaces the per-pair latency function.
func (n *MemNetwork) SetLatency(fn func(from, to string) time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = fn
}

// Endpoint creates and registers a transport with the given address.
func (n *MemNetwork) Endpoint(addr string) *MemTransport {
	n.mu.Lock()
	defer n.mu.Unlock()
	t := &MemTransport{net: n, addr: addr}
	n.eps[addr] = t
	return t
}

// Partition removes an endpoint from the fabric without closing it,
// simulating a network partition of that node.
func (n *MemNetwork) Partition(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.eps, addr)
}

// Heal re-registers a previously partitioned endpoint.
func (n *MemNetwork) Heal(t *MemTransport) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.eps[t.addr] = t
}

func (n *MemNetwork) lookup(addr string) *MemTransport {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eps[addr]
}

// MemTransport is one endpoint on a MemNetwork.
type MemTransport struct {
	net    *MemNetwork
	addr   string
	fromID core.NodeID

	mu      sync.Mutex
	handler Handler
	failure FailureHandler
	closed  bool
}

var _ Transport = (*MemTransport)(nil)

// Addr returns the endpoint's address.
func (t *MemTransport) Addr() string { return t.addr }

// SetHandlers registers the inbound callbacks.
func (t *MemTransport) SetHandlers(h Handler, f FailureHandler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
	t.failure = f
}

// Send delivers reliably: a missing or closed target triggers the failure
// handler (like a TCP reset).
func (t *MemTransport) Send(addr string, to core.NodeID, m core.Message) {
	t.deliver(addr, to, m, true)
}

// SendDatagram delivers best-effort: a dead target is silent. Loss is a
// FaultTransport rule (fault.Link.Loss), not a fabric setting.
func (t *MemTransport) SendDatagram(addr string, to core.NodeID, m core.Message) {
	t.deliver(addr, to, m, false)
}

func (t *MemTransport) deliver(addr string, to core.NodeID, m core.Message, reliable bool) {
	t.mu.Lock()
	closed := t.closed
	fail := t.failure
	t.mu.Unlock()
	if closed {
		return
	}
	target := t.net.lookup(addr)
	if target == nil || target.isClosed() {
		if reliable && fail != nil {
			go fail(to)
		}
		return
	}
	t.net.mu.Lock()
	lat := t.net.latency
	t.net.mu.Unlock()
	d := lat(t.addr, addr)
	from := t.fromID
	deliver := func() {
		target.mu.Lock()
		h := target.handler
		closed := target.closed
		target.mu.Unlock()
		if h != nil && !closed {
			h(from, m)
		}
	}
	if d <= 0 {
		go deliver()
		return
	}
	time.AfterFunc(d, deliver)
}

// SetFrom records the node ID that owns this endpoint; receivers see it
// as the message sender. Must be set before any traffic flows.
func (t *MemTransport) SetFrom(id core.NodeID) { t.fromID = id }

// isClosed reports whether Close was called.
func (t *MemTransport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Close deregisters the endpoint.
func (t *MemTransport) Close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.net.Partition(t.addr)
	return nil
}
