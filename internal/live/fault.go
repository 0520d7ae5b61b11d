// Fault injection for live transports. A FaultController holds one
// fault.State — the link-fault model netsim runs too — on a wall clock,
// and FaultTransport applies its verdicts on the send side of any
// Transport (MemTransport or TCPTransport alike), judging each frame by
// (sender, receiver) node ID. Loss and jitter draw from the installed
// spec's seed, so a chaos run is reproducible given the same message
// timing.
package live

import (
	"sync"
	"time"

	"gocast/internal/core"
	"gocast/internal/fault"
)

// FaultController owns the fault state, its clock, and its counters,
// shared by every FaultTransport wrapped through it so pairwise rules
// (partitions) are consistent across endpoints.
type FaultController struct {
	mu    sync.Mutex
	st    fault.State
	start time.Time
}

// NewFaultController starts a controller with no fault installed; its
// clock, which times bandwidth-capped links, starts now.
func NewFaultController() *FaultController {
	return &FaultController{start: time.Now()}
}

// Set installs spec as the active fault state, replacing the previous
// one; nil or an empty spec clears every fault.
func (c *FaultController) Set(spec *fault.Spec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.Set(spec)
}

// Counters returns a snapshot of the cumulative fault counters.
func (c *FaultController) Counters() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.Stats().Counters()
}

// Wrap returns a Transport applying this controller's faults to what node
// self sends through inner. Wrap every endpoint of a group through the
// same controller so partitions are symmetric.
func (c *FaultController) Wrap(self core.NodeID, inner Transport) *FaultTransport {
	return &FaultTransport{inner: inner, ctl: c, self: self}
}

// judge decides one frame of size bytes from node from to node to.
func (c *FaultController) judge(from, to core.NodeID, size int) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.Judge(int(from), int(to), size, time.Since(c.start))
}

// FaultTransport applies a FaultController's verdicts to the send side of
// an inner Transport. Receiving, handlers, and Close pass straight
// through; because every endpoint of a test group is wrapped, send-side
// injection faults the whole fabric.
type FaultTransport struct {
	inner Transport
	ctl   *FaultController
	self  core.NodeID
}

var _ Transport = (*FaultTransport)(nil)

// Inner returns the wrapped transport (e.g. to reach MemTransport.SetFrom
// or TCPTransport.Stats).
func (f *FaultTransport) Inner() Transport { return f.inner }

// Addr returns the inner endpoint's address.
func (f *FaultTransport) Addr() string { return f.inner.Addr() }

// SetHandlers registers the inbound callbacks on the inner transport.
func (f *FaultTransport) SetHandlers(h Handler, fh FailureHandler) { f.inner.SetHandlers(h, fh) }

// Close closes the inner transport.
func (f *FaultTransport) Close() error { return f.inner.Close() }

// Stats merges the inner transport's counters (if it exposes any) with
// the controller's fault counters.
func (f *FaultTransport) Stats() map[string]int64 {
	out := f.ctl.Counters()
	if s, ok := f.inner.(interface{ Stats() map[string]int64 }); ok {
		for k, v := range s.Stats() {
			out[k] = v
		}
	}
	return out
}

// Send delivers m reliably unless the fault state blocks or drops it.
// Blocked reliable sends are silent blackholes by design: like a stalled
// TCP peer, detection is the protocol's job (keepalive timeouts), and
// recovery is gossip's (pulls after heal).
func (f *FaultTransport) Send(addr string, to core.NodeID, m core.Message) {
	f.dispatch(addr, to, m, f.inner.Send)
}

// SendDatagram delivers m best-effort through the fault model.
func (f *FaultTransport) SendDatagram(addr string, to core.NodeID, m core.Message) {
	f.dispatch(addr, to, m, f.inner.SendDatagram)
}

func (f *FaultTransport) dispatch(addr string, to core.NodeID, m core.Message, send func(string, core.NodeID, core.Message)) {
	extra, ok := f.ctl.judge(f.self, to, m.WireSize())
	if !ok {
		return
	}
	if extra <= 0 {
		send(addr, to, m)
		return
	}
	time.AfterFunc(extra, func() { send(addr, to, m) })
}
