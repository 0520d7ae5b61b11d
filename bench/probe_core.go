package main

import (
	"fmt"
	"math/rand"
	"time"

	"gocast/internal/core"
	"gocast/internal/fec"
)

// stubEnv is the probe substrate for one core.Node: it implements core.Env
// and core.MessagePool, drops what the node sends (recycling pooled wire
// structs the way netsim does) and captures After callbacks so a probe can
// fire a periodic tick by hand.
type stubEnv struct {
	now time.Duration
	rng *rand.Rand
	// armed holds the callbacks in arming order. core.Node.Start arms
	// gossip, maintenance, reclaim and sync in that order, and each tick is
	// the same callback every period, so the first entries stay valid.
	armed []func()

	gossipFree []*core.Gossip
	mcFree     []*core.Multicast
	prFree     []*core.PullRequest
}

var (
	_ core.Env         = (*stubEnv)(nil)
	_ core.MessagePool = (*stubEnv)(nil)
)

func (e *stubEnv) Now() time.Duration { return e.now }
func (e *stubEnv) Rand(n int) int {
	if n <= 0 {
		return 0
	}
	return e.rng.Intn(n)
}
func (e *stubEnv) Learn(core.Entry) {}

func (e *stubEnv) After(_ time.Duration, fn func()) core.Timer {
	if len(e.armed) < 8 {
		e.armed = append(e.armed, fn)
	}
	return core.MakeTimer(e, 0)
}

// CancelTimer makes stubEnv its own core.TimerCanceller; nothing ever
// fires on its own, so there is nothing to cancel.
func (e *stubEnv) CancelTimer(uint64) bool { return true }

func (e *stubEnv) Send(_ core.NodeID, m core.Message) {
	switch v := m.(type) {
	case *core.Gossip:
		v.IDs, v.Members, v.Obits, v.Syms = v.IDs[:0], v.Members[:0], v.Obits[:0], v.Syms[:0]
		v.Degrees = core.Degrees{}
		e.gossipFree = append(e.gossipFree, v)
	case *core.Multicast:
		*v = core.Multicast{}
		e.mcFree = append(e.mcFree, v)
	case *core.PullRequest:
		v.IDs = v.IDs[:0]
		e.prFree = append(e.prFree, v)
	}
}

func (e *stubEnv) SendDatagram(to core.NodeID, m core.Message) { e.Send(to, m) }

func (e *stubEnv) GetGossip() *core.Gossip {
	if n := len(e.gossipFree) - 1; n >= 0 {
		g := e.gossipFree[n]
		e.gossipFree = e.gossipFree[:n]
		return g
	}
	return &core.Gossip{}
}

func (e *stubEnv) GetMulticast() *core.Multicast {
	if n := len(e.mcFree) - 1; n >= 0 {
		m := e.mcFree[n]
		e.mcFree = e.mcFree[:n]
		return m
	}
	return &core.Multicast{}
}

func (e *stubEnv) GetPullRequest() *core.PullRequest {
	if n := len(e.prFree) - 1; n >= 0 {
		p := e.prFree[n]
		e.prFree = e.prFree[:n]
		return p
	}
	return &core.PullRequest{}
}

const probeDegree = 6

// coreProbeNode is one started core.Node at degree 6 (1 random + 5 nearby
// links wired with AddNeighborDirect), root of a tree whose six neighbours
// are all its children, with 32 further members in its view.
type coreProbeNode struct {
	env  *stubEnv
	node *core.Node
}

func newCoreProbeNode(cfg core.Config) *coreProbeNode {
	env := &stubEnv{rng: rand.New(rand.NewSource(1))}
	n := core.New(0, cfg, env)
	for k := 1; k <= probeDegree; k++ {
		kind := core.Nearby
		if k == 1 {
			kind = core.Random
		}
		n.AddNeighborDirect(core.Entry{ID: core.NodeID(k)}, kind, time.Duration(10+k)*time.Millisecond)
	}
	members := make([]core.Entry, 32)
	for i := range members {
		members[i] = core.Entry{ID: core.NodeID(probeDegree + 1 + i)}
	}
	n.SeedMembers(members)
	n.BecomeRoot()
	n.Start()
	for k := 1; k <= probeDegree; k++ {
		n.HandleMessage(core.NodeID(k), &core.TreeParent{On: true})
	}
	return &coreProbeNode{env: env, node: n}
}

// The arming order of core.Node.Start.
const (
	tickGossip = iota
	tickMaintain
)

// refresh makes every neighbour heard from just now, so advancing the
// stub clock never trips the neighbour-liveness timeout.
func (c *coreProbeNode) refresh() {
	for k := 1; k <= probeDegree; k++ {
		c.node.HandleMessage(core.NodeID(k), &core.TreeParent{On: true})
	}
}

func probeCore(p *prober) error {
	cfg := core.DefaultConfig()
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	const foreign = core.NodeID(7) // a source that is not a neighbour

	// Self-check of the arming-order assumption before relying on it.
	{
		c := newCoreProbeNode(cfg)
		if len(c.env.armed) <= tickMaintain {
			return fmt.Errorf("core probe: Start armed %d timers", len(c.env.armed))
		}
		before := c.node.Stats().GossipsSent
		c.env.armed[tickGossip]()
		if c.node.Stats().GossipsSent != before+1 {
			return fmt.Errorf("core probe: first armed timer is not the gossip tick")
		}
	}

	multicasts := func(n int, seqBase uint32) []*core.Multicast {
		out := make([]*core.Multicast, n)
		for i := range out {
			out[i] = &core.Multicast{ID: core.MessageID{Source: foreign, Seq: seqBase + uint32(i)}, Payload: payload, ViaTree: true}
		}
		return out
	}

	fwd := p.ns("core.tree_forward_ns", 2000, func(n int) probeBody {
		c := newCoreProbeNode(cfg)
		msgs := multicasts(n, 0)
		return timeLoop(n, func(i int) { c.node.HandleMessage(1, msgs[i]) })
	})
	p.res.setN("core.allocs_per_forward", fwd.allocsPerOp, probeRepeats)

	p.ns("core.dup_payload_ns", 2000, func(n int) probeBody {
		c := newCoreProbeNode(cfg)
		for _, m := range multicasts(n, 0) {
			c.node.HandleMessage(1, m)
		}
		again := multicasts(n, 0)
		return timeLoop(n, func(i int) { c.node.HandleMessage(2, again[i]) })
	})

	p.ns("core.publish_ns", 2000, func(n int) probeBody {
		c := newCoreProbeNode(cfg)
		return timeLoop(n, func(int) { c.node.Multicast(payload) })
	})

	gossipOf := func(seqBase uint32) *core.Gossip {
		g := &core.Gossip{IDs: make([]core.GossipID, 32)}
		for i := range g.IDs {
			g.IDs[i] = core.GossipID{ID: core.MessageID{Source: foreign, Seq: seqBase + uint32(i)}, Age: time.Millisecond}
		}
		return g
	}

	p.ns("core.handle_gossip_hit_ns", 20000, func(n int) probeBody {
		c := newCoreProbeNode(cfg)
		for _, m := range multicasts(32, 0) {
			c.node.HandleMessage(1, m)
		}
		g := gossipOf(0)
		return timeLoop(n, func(int) { c.node.HandleMessage(2, g) })
	})

	// 32 unknown IDs per gossip: 32 pull states, one PullRequest, 32 retry
	// timers.
	p.ns("core.handle_gossip_miss_ns", 300, func(n int) probeBody {
		c := newCoreProbeNode(cfg)
		gs := make([]*core.Gossip, n)
		for i := range gs {
			gs[i] = gossipOf(uint32(i) * 32)
		}
		return timeLoop(n, func(i int) { c.node.HandleMessage(2, gs[i]) })
	})

	p.ns("core.pull_serve_ns", 20000, func(n int) probeBody {
		c := newCoreProbeNode(cfg)
		c.node.HandleMessage(1, multicasts(1, 0)[0])
		req := &core.PullRequest{IDs: []core.MessageID{{Source: foreign, Seq: 0}}}
		return timeLoop(n, func(int) { c.node.HandleMessage(2, req) })
	})

	// One gossip round with 32 recent messages: 32 publishes (untimed),
	// then one tick per neighbour (timed), so every tick announces.
	p.ns("core.gossip_round_ns", 600, func(n int) probeBody {
		c := newCoreProbeNode(cfg)
		tick := c.env.armed[tickGossip]
		return func() (total time.Duration, mallocs uint64) {
			for i := 0; i < n; i += probeDegree {
				for k := 0; k < 32; k++ {
					c.node.Multicast(payload)
				}
				c.refresh()
				d, a := timed(func() {
					for k := 0; k < probeDegree; k++ {
						c.env.now += cfg.GossipPeriod
						tick()
					}
				})
				total, mallocs = total+d, mallocs+a
			}
			return total, mallocs
		}
	})

	// Sixteen maintenance ticks per timed section, neighbours refreshed in
	// between so the liveness timeout never fires.
	p.ns("core.maintain_tick_ns", 2048, func(n int) probeBody {
		c := newCoreProbeNode(cfg)
		tick := c.env.armed[tickMaintain]
		return func() (total time.Duration, mallocs uint64) {
			for i := 0; i < n; i += 16 {
				c.refresh()
				d, a := timed(func() {
					for k := 0; k < 16; k++ {
						c.env.now += cfg.MaintainPeriod
						tick()
					}
				})
				total, mallocs = total+d, mallocs+a
			}
			return total, mallocs
		}
	})

	// Coopcast: the live-bulk geometry.
	bulkCfg := cfg
	bulkCfg.CoopcastThreshold = fullLiveBulk.coopThreshold
	bulkCfg.FECSymbolSize = fecSymbolSize
	bulkCfg.FECRepair = fecRepair
	bulk := make([]byte, fullLiveBulk.payload)
	rand.New(rand.NewSource(2)).Read(bulk)

	st := measure(40, func(n int) probeBody {
		c := newCoreProbeNode(bulkCfg)
		return timeLoop(n, func(int) { c.node.Multicast(bulk) })
	})
	p.record("core.coopcast_publish_us", st, 1e-3)

	params := fec.ParamsFor(len(bulk), fecSymbolSize, fecRepair)
	coder, err := fec.NewRS(params)
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	symbols, err := coder.Encode(bulk)
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	// K source symbols per message arrive over one tree link; the K-th
	// completes the assembly, so reassembly is amortised into the figure.
	p.ns("core.symbol_recv_ns", 20*params.K, func(n int) probeBody {
		c := newCoreProbeNode(bulkCfg)
		in := make([]*core.Symbol, n)
		for i := range in {
			in[i] = &core.Symbol{
				ID:    core.MessageID{Source: foreign, Seq: uint32(i / params.K)},
				Index: uint16(i % params.K), K: uint16(params.K), N: uint16(params.N()),
				PayloadLen: uint32(len(bulk)), Data: symbols[i%params.K], ViaTree: true,
			}
		}
		return timeLoop(n, func(i int) { c.node.HandleMessage(1, in[i]) })
	})
	return nil
}
