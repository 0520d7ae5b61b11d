package netsim

import (
	"math/rand"
	"testing"
	"time"

	"gocast/internal/core"
	"gocast/internal/fault"
)

// coopcastTestConfig enables erasure-coded bulk dissemination on top of
// the shared fast-converging test timing.
func coopcastTestConfig() core.Config {
	cfg := fastTestConfig()
	cfg.CoopcastThreshold = 8 << 10
	cfg.FECSymbolSize = 1024
	cfg.FECRepair = 4
	return cfg
}

// TestCoopcastLossyLinksReassemble disseminates a 64 KiB payload under 8%
// uniform link loss: tree stripes lose symbols, gossip adverts plus
// per-symbol pulls repair the gaps, and every node must reconstruct from
// whichever K-subset reaches it — the end-to-end any-K-of-N property.
func TestCoopcastLossyLinksReassemble(t *testing.T) {
	const n = 24
	cfg := coopcastTestConfig()
	c := New(Options{Nodes: n, Seed: 13, Config: cfg})
	c.BootstrapMembership(cfg.MemberViewSize / 2)
	c.WireRandom(cfg.TargetDegree() / 2)
	c.Start(0)
	c.Run(60 * time.Second)

	c.SetFaults(&fault.Spec{Seed: 5, Rules: []fault.Link{{Loss: 0.08}}})
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(21)).Read(payload)
	c.Inject(0, payload)
	c.Run(2 * time.Minute)

	if got := c.ReceiveCounts()[0]; got != n {
		t.Fatalf("delivered to %d/%d nodes under loss", got, n)
	}
	if v := c.AtomicityViolations(30 * time.Second); v != 0 {
		t.Fatalf("%d atomicity violations", v)
	}
	s := c.SumCounters()
	if s.SymbolsSent == 0 {
		t.Fatalf("no tree-striped symbols sent")
	}
	// 23 receivers must each decode once; the source never decodes.
	if s.FECDecodes != n-1 {
		t.Fatalf("FECDecodes = %d, want %d", s.FECDecodes, n-1)
	}
	if s.FECDecodeFailures != 0 {
		t.Fatalf("%d decode failures", s.FECDecodeFailures)
	}
	if s.SymbolPullsSent == 0 || s.SymbolsServed == 0 {
		t.Fatalf("loss repaired without symbol pulls (pulls=%d served=%d): loss model inert?",
			s.SymbolPullsSent, s.SymbolsServed)
	}
	if fs := c.FaultStats(); fs.Dropped == 0 {
		t.Fatalf("loss rule dropped nothing")
	}
}

// TestCoopcastDisabledMatchesWholePath pins that a zero threshold keeps
// the classic whole-payload path: same cluster, same payload, no symbol
// traffic at all.
func TestCoopcastDisabledMatchesWholePath(t *testing.T) {
	const n = 16
	cfg := fastTestConfig()
	c := New(Options{Nodes: n, Seed: 13, Config: cfg})
	c.BootstrapMembership(cfg.MemberViewSize / 2)
	c.WireRandom(cfg.TargetDegree() / 2)
	c.Start(0)
	c.Run(60 * time.Second)

	payload := make([]byte, 64<<10)
	c.Inject(0, payload)
	c.Run(time.Minute)

	if got := c.ReceiveCounts()[0]; got != n {
		t.Fatalf("delivered to %d/%d nodes", got, n)
	}
	s := c.SumCounters()
	if s.SymbolsSent != 0 || s.SymbolsRecv != 0 || s.SymbolPullsSent != 0 || s.FECDecodes != 0 {
		t.Fatalf("symbol traffic with coopcast disabled: %+v", s)
	}
}
