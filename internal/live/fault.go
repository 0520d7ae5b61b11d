// Fault injection for live transports. A FaultController evaluates a
// declarative FaultPlan — phases of drops, delays, duplicates, reorders,
// partitions, and slow links over time — and FaultTransport applies the
// verdicts on the send side of any Transport (MemTransport or
// TCPTransport alike). All randomness comes from the plan's seed, so a
// chaos run is reproducible given the same message timing.
package live

import (
	"math/rand"
	"sync"
	"time"

	"gocast/internal/core"
)

// Fault counter names, visible in FaultController.Counters snapshots.
const (
	CtrFaultBlocked    = "fault_blocked"    // messages blocked by a partition or one-way rule
	CtrFaultDropped    = "fault_dropped"    // messages lost to a probabilistic drop
	CtrFaultDelayed    = "fault_delayed"    // messages delivered late (delay/jitter/slow link)
	CtrFaultDuplicated = "fault_duplicated" // messages delivered twice
	CtrFaultReordered  = "fault_reordered"  // messages held back to force reordering
	CtrFaultThrottled  = "fault_throttled"  // messages delayed by a bandwidth cap
	CtrFaultPassed     = "fault_passed"     // messages forwarded unharmed
)

// FaultPlan declares a schedule of network faults. Phase times are
// relative to the controller's creation.
type FaultPlan struct {
	// Seed drives all fault randomness (0 means 1).
	Seed int64
	// Phases are evaluated independently; every phase active at a
	// message's send time applies to it.
	Phases []FaultPhase
}

// Direction names an ordered endpoint pair for asymmetric rules. Empty
// strings are wildcards.
type Direction struct {
	From, To string
}

// SlowLink adds Extra delay to traffic matching From→To (empty strings
// are wildcards).
type SlowLink struct {
	From, To string
	Extra    time.Duration
}

// BandwidthCap throttles From→To traffic (empty strings are wildcards) to
// BytesPerSec, modeled as a serial link with a virtual transmission clock:
// each message occupies the link for WireSize/rate and is delivered when
// its transmission would complete. Burst grants that many bytes of
// queued transmission before delay accrues, so short spikes pass
// unthrottled. Each matching (rule, from, to) pair has its own clock.
type BandwidthCap struct {
	From, To    string
	BytesPerSec int64
	Burst       int64
}

// FaultPhase is one time window of faults, e.g. "from t=5s to t=15s,
// partition {A,B} | {C,D} and drop 10% of datagrams elsewhere".
type FaultPhase struct {
	// Start and End bound the phase (relative to controller creation).
	// End <= Start means the phase never expires.
	Start, End time.Duration

	// Drop is the probability a datagram is silently lost.
	Drop float64
	// DropReliable is the probability a reliable send is silently lost
	// (a blackhole: the sender is NOT told, mirroring a stalled TCP peer;
	// the protocol's keepalives and gossip pulls must compensate).
	DropReliable float64
	// Delay is a fixed extra delivery delay; Jitter adds a further
	// uniform [0, Jitter) on top. Applied to both channels.
	Delay  time.Duration
	Jitter time.Duration
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Reorder is the probability a message is held back ReorderDelay
	// (default 20ms) so later sends overtake it.
	Reorder      float64
	ReorderDelay time.Duration

	// Partition lists address groups; traffic between addresses in
	// different groups is blocked both ways. Addresses in no group are
	// unaffected.
	Partition [][]string
	// OneWay blocks matching From→To traffic only — an asymmetric
	// partition.
	OneWay []Direction
	// Slow adds per-pair extra delay.
	Slow []SlowLink
	// Bandwidth caps per-pair throughput (see BandwidthCap).
	Bandwidth []BandwidthCap
}

// active reports whether the phase covers time t.
func (p *FaultPhase) active(t time.Duration) bool {
	return t >= p.Start && (p.End <= p.Start || t < p.End)
}

// blocks reports whether the phase forbids from→to traffic entirely.
func (p *FaultPhase) blocks(from, to string) bool {
	for _, d := range p.OneWay {
		if matchAddr(d.From, from) && matchAddr(d.To, to) {
			return true
		}
	}
	if len(p.Partition) > 0 {
		gf, gt := groupOf(p.Partition, from), groupOf(p.Partition, to)
		if gf >= 0 && gt >= 0 && gf != gt {
			return true
		}
	}
	return false
}

func matchAddr(pattern, addr string) bool { return pattern == "" || pattern == addr }

func groupOf(groups [][]string, addr string) int {
	for i, g := range groups {
		for _, a := range g {
			if a == addr {
				return i
			}
		}
	}
	return -1
}

// FaultController owns a fault plan's clock, RNG, and counters, shared by
// every FaultTransport wrapped through it so pairwise rules (partitions)
// are consistent across endpoints.
type FaultController struct {
	mu     sync.Mutex
	rng    *rand.Rand
	phases []FaultPhase
	start  time.Time
	ctr    faultCounts
	// bwFree tracks each capped link's virtual transmission clock: the
	// controller-relative time at which the link next frees up.
	bwFree map[bwKey]time.Duration
}

// faultCounts are the controller's verdict counters, one per CtrFault*
// name, guarded by the controller's mutex.
type faultCounts struct {
	blocked, dropped, delayed, duplicated, reordered, throttled, passed int64
}

// bwKey identifies one bandwidth rule's state for one concrete endpoint
// pair (wildcard rules keep a clock per matched pair).
type bwKey struct {
	phase, rule int
	from, to    string
}

// NewFaultController starts a controller; phase times count from now.
func NewFaultController(plan FaultPlan) *FaultController {
	seed := plan.Seed
	if seed == 0 {
		seed = 1
	}
	return NewFaultControllerRand(plan, rand.New(rand.NewSource(seed)))
}

// NewFaultControllerRand starts a controller drawing all fault randomness
// from the caller's RNG instead of one derived from plan.Seed. The
// scenario engine uses this to thread a single scenario-owned seeded
// stream through the fault layer, so a live chaos run replays its exact
// fault schedule from one -seed. The controller owns rng after this call;
// do not share it with other consumers.
func NewFaultControllerRand(plan FaultPlan, rng *rand.Rand) *FaultController {
	return &FaultController{
		rng:    rng,
		phases: append([]FaultPhase(nil), plan.Phases...),
		start:  time.Now(),
		bwFree: make(map[bwKey]time.Duration),
	}
}

// Elapsed returns the controller's clock, for computing phase times of
// dynamically added phases.
func (c *FaultController) Elapsed() time.Duration { return time.Since(c.start) }

// AddPhase appends a phase at runtime (chaos mid-test).
func (c *FaultController) AddPhase(p FaultPhase) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.phases = append(c.phases, p)
}

// Clear removes all phases; traffic flows unharmed afterwards.
func (c *FaultController) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.phases = nil
	c.bwFree = make(map[bwKey]time.Duration)
}

// Counters returns a snapshot of the fault counters, one entry per
// CtrFault* name.
func (c *FaultController) Counters() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return map[string]int64{
		CtrFaultBlocked:    c.ctr.blocked,
		CtrFaultDropped:    c.ctr.dropped,
		CtrFaultDelayed:    c.ctr.delayed,
		CtrFaultDuplicated: c.ctr.duplicated,
		CtrFaultReordered:  c.ctr.reordered,
		CtrFaultThrottled:  c.ctr.throttled,
		CtrFaultPassed:     c.ctr.passed,
	}
}

// Wrap returns a Transport applying this controller's faults on top of
// inner. Wrap every endpoint of a group through the same controller so
// partitions are symmetric.
func (c *FaultController) Wrap(inner Transport) *FaultTransport {
	return &FaultTransport{inner: inner, ctl: c}
}

// faultVerdict is the composed outcome of all active phases for one send.
type faultVerdict struct {
	drop  bool
	delay time.Duration
	dup   bool
}

// judge composes every active phase's effect on one from→to send, ignoring
// bandwidth caps (size 0 occupies no link time).
func (c *FaultController) judge(from, to string, reliable bool) faultVerdict {
	return c.judgeSized(from, to, reliable, 0)
}

// judgeSized composes every active phase's effect on one from→to send of
// the given wire size.
func (c *FaultController) judgeSized(from, to string, reliable bool, size int) faultVerdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Since(c.start)
	var v faultVerdict
	anyActive := false
	throttled := false
	for i := range c.phases {
		p := &c.phases[i]
		if !p.active(now) {
			continue
		}
		anyActive = true
		if p.blocks(from, to) {
			c.ctr.blocked++
			v.drop = true
			continue
		}
		prob := p.Drop
		if reliable {
			prob = p.DropReliable
		}
		if prob > 0 && c.rng.Float64() < prob {
			c.ctr.dropped++
			v.drop = true
			continue
		}
		v.delay += p.Delay
		if p.Jitter > 0 {
			v.delay += time.Duration(c.rng.Int63n(int64(p.Jitter)))
		}
		for _, s := range p.Slow {
			if matchAddr(s.From, from) && matchAddr(s.To, to) {
				v.delay += s.Extra
			}
		}
		if size > 0 {
			for ri := range p.Bandwidth {
				bc := &p.Bandwidth[ri]
				if bc.BytesPerSec <= 0 || !matchAddr(bc.From, from) || !matchAddr(bc.To, to) {
					continue
				}
				key := bwKey{phase: i, rule: ri, from: from, to: to}
				free := c.bwFree[key]
				if free < now {
					free = now
				}
				free += time.Duration(int64(size) * int64(time.Second) / bc.BytesPerSec)
				c.bwFree[key] = free
				delay := free - now
				if bc.Burst > 0 {
					delay -= time.Duration(bc.Burst * int64(time.Second) / bc.BytesPerSec)
				}
				if delay > 0 {
					v.delay += delay
					throttled = true
				}
			}
		}
		if p.Reorder > 0 && c.rng.Float64() < p.Reorder {
			rd := p.ReorderDelay
			if rd <= 0 {
				rd = 20 * time.Millisecond
			}
			v.delay += rd
			c.ctr.reordered++
		}
		if p.Duplicate > 0 && c.rng.Float64() < p.Duplicate {
			v.dup = true
			c.ctr.duplicated++
		}
	}
	if v.drop {
		return v
	}
	if throttled {
		c.ctr.throttled++
	}
	if v.delay > 0 {
		c.ctr.delayed++
	} else if anyActive {
		c.ctr.passed++
	}
	return v
}

// FaultTransport applies a FaultController's verdicts to the send side of
// an inner Transport. Receiving, handlers, and Close pass straight
// through; because every endpoint of a test group is wrapped, send-side
// injection faults the whole fabric.
type FaultTransport struct {
	inner Transport
	ctl   *FaultController
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

// Send delivers m reliably unless an active fault phase blocks or drops
// it. Blocked reliable sends are silent blackholes by design: like a
// stalled TCP peer, detection is the protocol's job (keepalive timeouts),
// and recovery is gossip's (pulls after heal).
func (f *FaultTransport) Send(addr string, to core.NodeID, m core.Message) {
	f.dispatch(addr, to, m, true)
}

// SendDatagram delivers m best-effort through the fault model.
func (f *FaultTransport) SendDatagram(addr string, to core.NodeID, m core.Message) {
	f.dispatch(addr, to, m, false)
}

func (f *FaultTransport) dispatch(addr string, to core.NodeID, m core.Message, reliable bool) {
	v := f.ctl.judgeSized(f.inner.Addr(), addr, reliable, m.WireSize())
	if v.drop {
		return
	}
	send := func() {
		if reliable {
			f.inner.Send(addr, to, m)
		} else {
			f.inner.SendDatagram(addr, to, m)
		}
	}
	if v.delay <= 0 {
		send()
	} else {
		time.AfterFunc(v.delay, send)
	}
	if v.dup {
		time.AfterFunc(v.delay+time.Millisecond, send)
	}
}
