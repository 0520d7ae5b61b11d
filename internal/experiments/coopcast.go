package experiments

import (
	"fmt"
	"time"

	"gocast/internal/core"
	"gocast/internal/netsim"
	"gocast/internal/underlay"
)

// Coopcast measures erasure-coded bulk dissemination against the classic
// whole-payload path on a lossy AS-level underlay. For each payload size,
// the same cluster and workload run twice — coopcast off and on — and the
// report compares:
//
//   - max per-physical-link bytes (underlay link-stress harness): the
//     striping rule sends each symbol down ONE tree link, so no link
//     carries the whole payload, while whole-payload tree push puts every
//     byte on every tree link;
//   - repair traffic under loss: whole-mode repair re-sends the entire
//     payload per pull, coopcast re-sends only the missing symbols — the
//     average repair transfer stays near the symbol size no matter how
//     large the payload grows (sublinear in payload size);
//   - virtual delivery delay p50/p90 over every (message, node) pair: the
//     latency side of the trade, since a coopcast receiver finishes
//     through adverts and symbol pulls instead of one tree push.
//
// Delivery must stay total in both modes; loss is repaired by pulls (and
// the sync backstop), never given up on.
func Coopcast(sc Scale, payloads []int, loss float64) *Report {
	if len(payloads) == 0 {
		payloads = []int{64 << 10, 256 << 10}
	}
	nodes := sc.Nodes
	if nodes > 128 {
		nodes = 128 // bulk payloads: modest group, big messages
	}
	const ases = 32
	const msgs = 3

	type result struct {
		delivered   int
		maxASLink   int64
		maxPeerLink int64
		repairXfers int64
		repairBytes int64
		decodeFails int64
		symbolPulls int64
		p50, p90    time.Duration
	}

	run := func(coopcast bool, payload int) result {
		cfg := core.DefaultConfig()
		if coopcast {
			cfg.CoopcastThreshold = 32 << 10
			cfg.FECSymbolSize = 1024
			cfg.FECRepair = 4
		}
		g := underlay.Generate(ases, 2, sc.Seed)
		router := underlay.NewRouter(g)
		stress := underlay.NewStress(router)
		asOf := func(node int) int { return node % ases }
		var repairBytes, repairXfers int64
		// perLink tallies bytes per directed node pair: the hottest single
		// link is where whole-payload tree push concentrates load and where
		// striping's per-link relief shows.
		perLink := map[int64]int64{}
		c := netsim.New(netsim.Options{
			Nodes:  nodes,
			Seed:   sc.Seed,
			Config: cfg,
			Matrix: router.Matrix(),
			Observer: func(from, to core.NodeID, m core.Message) {
				stress.AddTransmission(asOf(int(from)), asOf(int(to)), m.WireSize())
				perLink[int64(from)<<32|int64(uint32(to))] += int64(m.WireSize())
				// Repair traffic: everything that re-transfers payload
				// bytes outside the primary tree push.
				switch v := m.(type) {
				case *core.Multicast:
					if !v.ViaTree {
						repairBytes += int64(m.WireSize())
						repairXfers++
					}
				case *core.Symbol:
					if !v.ViaTree {
						repairBytes += int64(m.WireSize())
						repairXfers++
					}
				case *core.PullRequest, *core.SymbolPull:
					repairBytes += int64(m.WireSize())
				case *core.SyncReply:
					if len(v.Items) > 0 || len(v.Syms) > 0 {
						repairBytes += int64(m.WireSize())
						repairXfers += int64(len(v.Items) + len(v.Syms))
					}
				}
			},
		})
		c.BootstrapMembership(cfg.MemberViewSize / 2)
		c.WireRandom(cfg.TargetDegree() / 2)
		c.Start(0)
		c.Run(sc.Warmup)
		// Steady state reached: count only the dissemination phase.
		stress.Reset()
		repairBytes, repairXfers = 0, 0
		perLink = map[int64]int64{}
		c.SetFaults(&netsim.FaultSpec{Seed: sc.Seed + 3, Rules: []netsim.LinkFault{{Loss: loss}}})
		for i := 0; i < msgs; i++ {
			c.Inject((i*17)%nodes, make([]byte, payload))
			c.Run(10 * time.Second)
		}
		c.Run(90 * time.Second)
		delivered := nodes
		for _, got := range c.ReceiveCounts() {
			if got < delivered {
				delivered = got
			}
		}
		var maxPeer int64
		for _, b := range perLink {
			if b > maxPeer {
				maxPeer = b
			}
		}
		s := c.SumCounters()
		cdf := c.Delays().CDF()
		return result{
			delivered:   delivered,
			maxASLink:   stress.Max(),
			maxPeerLink: maxPeer,
			repairXfers: repairXfers,
			repairBytes: repairBytes,
			decodeFails: s.FECDecodeFailures,
			symbolPulls: s.SymbolPullsSent,
			p50:         cdf.Quantile(0.50),
			p90:         cdf.Quantile(0.90),
		}
	}

	rep := &Report{
		Name: fmt.Sprintf("Coopcast: erasure-coded bulk dissemination (%d nodes, %d ASes, %.0f%% loss)",
			nodes, ases, loss*100),
		Header: []string{"payload", "mode", "delivered", "max peer-link bytes", "max AS-link bytes", "repair xfers", "repair bytes", "avg repair xfer", "delay p50", "delay p90"},
	}
	for _, payload := range payloads {
		whole := run(false, payload)
		coop := run(true, payload)
		row := func(mode string, r result) []string {
			avg := int64(0)
			if r.repairXfers > 0 {
				avg = r.repairBytes / r.repairXfers
			}
			return []string{
				fmt.Sprintf("%dKiB", payload>>10), mode,
				fmt.Sprintf("%d/%d", r.delivered, nodes),
				fmt.Sprintf("%d", r.maxPeerLink),
				fmt.Sprintf("%d", r.maxASLink),
				fmt.Sprintf("%d", r.repairXfers),
				fmt.Sprintf("%d", r.repairBytes),
				fmt.Sprintf("%d", avg),
				fmtDur(r.p50),
				fmtDur(r.p90),
			}
		}
		rep.Rows = append(rep.Rows, row("whole", whole), row("coopcast", coop))
		if coop.maxPeerLink > 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"%dKiB: hottest-link reduction %.1fx; avg repair transfer %d B vs %d B (symbol-sized, sublinear in payload)",
				payload>>10,
				float64(whole.maxPeerLink)/float64(coop.maxPeerLink),
				avgOf(coop.repairBytes, coop.repairXfers),
				avgOf(whole.repairBytes, whole.repairXfers)))
		}
		if coop.decodeFails > 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%dKiB: %d FEC decode failures (unexpected)", payload>>10, coop.decodeFails))
		}
		if coop.symbolPulls == 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%dKiB: no symbol pulls — loss model inert?", payload>>10))
		}
	}
	return rep
}

func avgOf(bytes, n int64) int64 {
	if n == 0 {
		return 0
	}
	return bytes / n
}
