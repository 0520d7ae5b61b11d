package experiments

import (
	"fmt"
	"time"

	"gocast/internal/core"
	"gocast/internal/dtrace"
	"gocast/internal/fault"
	"gocast/internal/netsim"
)

// Paths traces every injected multicast through a lossy network and
// reports, per message, how the group actually received it: how many
// deliveries rode the multicast tree versus being recovered by gossip
// pull or anti-entropy sync, how deep the dissemination tree went, and
// the latency attribution of each path class. This is the dissemination
// tracing (internal/dtrace) counterpart of the delay figures: where
// Figure 3 shows *when* messages arrive, Paths shows *how*.
//
// Every message is sampled (TraceSampleEvery=1) and the network drops
// the given fraction of transmissions (default 10%), so the pull-repair
// machinery is exercised on every run. Deterministic per seed.
func Paths(sc Scale, loss float64) *Report {
	if loss <= 0 {
		loss = 0.10
	}
	msgs := sc.Messages
	if msgs > 16 {
		// Tracing every delivery of every message: keep the message count
		// small enough that the span buffer holds the whole run.
		msgs = 16
	}
	cfg := core.DefaultConfig()
	cfg.TraceSampleEvery = 1
	spans := dtrace.NewBuffer(sc.Nodes * msgs * 8)

	c := netsim.New(netsim.Options{
		Nodes:  sc.Nodes,
		Seed:   sc.Seed,
		Config: cfg,
		Trace: func(s dtrace.Span) {
			if s.Sampled {
				spans.Record(s)
			}
		},
	})
	c.BootstrapMembership(cfg.MemberViewSize / 2)
	c.WireRandom(cfg.TargetDegree() / 2)
	c.Start(0)
	c.Run(sc.Warmup)

	c.SetFaults(&fault.Spec{
		Seed:  sc.Seed + 41,
		Rules: []fault.Link{{Loss: loss}},
	})
	c.InjectStream(msgs, sc.Rate, nil)
	c.Run(time.Duration(float64(msgs)/sc.Rate*float64(time.Second)) + sc.Drain)
	c.SetFaults(nil)

	rep := &Report{
		Name:   fmt.Sprintf("Dissemination paths: delivery attribution at %.0f%% loss", loss*100),
		Header: []string{"msg", "deliveries", "tree", "pull", "sync", "fec", "max-hops", "tree-p50", "pull-p50", "pull-wait-p50"},
	}
	traces := dtrace.Stitch(spans.Snapshot())
	var totTree, totPull, totSync, totFec int
	var treeAges, pullAges, pullWaits []time.Duration
	for _, t := range traces {
		tree, pull, sync, fec := t.Counts()
		totTree += tree
		totPull += pull
		totSync += sync
		totFec += fec
		var msgTree, msgPull, msgWait []time.Duration
		for _, d := range t.Deliveries {
			switch d.Via {
			case "tree":
				msgTree = append(msgTree, d.Age)
			case "pull":
				msgPull = append(msgPull, d.Age)
				msgWait = append(msgWait, d.Wait)
			}
		}
		treeAges = append(treeAges, msgTree...)
		pullAges = append(pullAges, msgPull...)
		pullWaits = append(pullWaits, msgWait...)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d/%d", t.Src, t.Seq),
			fmt.Sprintf("%d", len(t.Deliveries)),
			fmt.Sprintf("%d", tree),
			fmt.Sprintf("%d", pull),
			fmt.Sprintf("%d", sync),
			fmt.Sprintf("%d", fec),
			fmt.Sprintf("%d", t.MaxHops()),
			fmtDur(median(msgTree)),
			fmtDur(median(msgPull)),
			fmtDur(median(msgWait)),
		})
	}
	total := totTree + totPull + totSync + totFec
	if total > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%d deliveries traced: %.1f%% tree push, %.1f%% pull-recovered, %.1f%% sync, %.1f%% fec",
			total,
			100*float64(totTree)/float64(total),
			100*float64(totPull)/float64(total),
			100*float64(totSync)/float64(total),
			100*float64(totFec)/float64(total)))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("group-wide p50 age: tree %s, pull %s (advert-to-request wait p50 %s)",
			fmtDur(median(treeAges)), fmtDur(median(pullAges)), fmtDur(median(pullWaits))),
		fmt.Sprintf("%d nodes, %d messages at %.0f/s after %v adaptation, every message traced, seed %d",
			sc.Nodes, msgs, sc.Rate, sc.Warmup, sc.Seed),
		fmt.Sprintf("span buffer: %d recorded, %d evicted (want 0)", spans.Len(), spans.Dropped()),
		"render any one tree: gocast-trace -in <(curl .../spans) -msg src/seq; in-process, dtrace.Stitch + Render",
	)
	return rep
}

// median returns the middle value of an unsorted duration sample (0 when
// empty). The sample is small; a sort-free selection is not worth it.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
