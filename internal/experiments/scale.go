package experiments

import (
	"fmt"
	"time"

	"gocast/internal/core"
)

// ScaleSweep pushes one GoCast configuration through a series of system
// sizes — into the 10⁵–10⁶-node regime the paper's sequential C++
// simulator never reached — and reports, per size, the wall-clock cost
// of simulating it alongside the delivery quality. Unlike the figure
// runners the wall-clock column is real time, not virtual time, so the
// table is a performance record (it varies with the host); every other
// column is deterministic in the seed and identical at any shard count.
//
// Points run one after another (never through the sweep worker pool):
// each point is itself parallel across sc.Shards and is being timed.
func ScaleSweep(sc Scale, sizes []int) *Report {
	if len(sizes) == 0 {
		sizes = []int{1 << 10, 1 << 13, 1 << 15}
	}
	rep := &Report{
		Name: "Scale sweep: simulation cost and delivery vs system size",
		Header: []string{"nodes", "shards", "wall", "events", "ev/s",
			"p50", "p99", "delivered", "atomic-viol"},
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("per point: %v warmup, %d messages at %.0f/s, %v drain, %d shards requested, seed %d",
			sc.Warmup, sc.Messages, sc.Rate, sc.Drain, sc.Shards, sc.Seed),
		"wall and ev/s are host wall-clock (not deterministic); all other columns are seed-deterministic and shard-count-independent",
	)
	for _, n := range sizes {
		p := sc
		p.Nodes = n
		c := buildOverlayCluster(p, overlayConfigOrDefault())
		start := time.Now()
		c.Run(p.Warmup)
		c.InjectStream(p.Messages, p.Rate, nil)
		c.Run(time.Duration(float64(p.Messages)/p.Rate*float64(time.Second)) + p.Drain)
		wall := time.Since(start)
		rec := c.Delays()
		cdf := rec.CDF()
		events := c.ExecutedEvents()
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", c.EffectiveShards()),
			fmt.Sprintf("%.1fs", wall.Seconds()),
			fmt.Sprintf("%d", events),
			fmt.Sprintf("%.2gM", float64(events)/wall.Seconds()/1e6),
			fmtDur(cdf.Quantile(0.50)),
			fmtDur(cdf.Quantile(0.99)),
			fmt.Sprintf("%.4f", rec.DeliveryRatio()),
			fmt.Sprintf("%d", c.AtomicityViolations(5*time.Second)),
		})
		if windows, covered := c.ShardWindows(); windows > 0 {
			var most, sum uint64
			perShard := c.ShardEvents()
			for _, e := range perShard {
				sum += e
				most = max(most, e)
			}
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"%d nodes: %d windows, mean width %v, shard events max/mean %.2f",
				n, windows, (covered/time.Duration(windows)).Round(time.Microsecond),
				float64(most)*float64(len(perShard))/float64(sum)))
		}
	}
	return rep
}

// overlayConfigOrDefault returns the GoCast default configuration (the
// sweep measures the engine, not a protocol ablation).
func overlayConfigOrDefault() core.Config {
	c, _ := overlayConfig(ProtoGoCast)
	return c
}
