package experiments

import (
	"fmt"
	"time"

	"gocast/internal/core"
	"gocast/internal/dtrace"
	"gocast/internal/metrics"
	"gocast/internal/netsim"
)

// Figure5a reproduces Figure 5(a): the distribution of node degrees at
// 0 s, 5 s, and after full adaptation, plus the stabilized random/nearby
// degree censuses quoted in Sections 2.2.2 and 2.2.3 (~88%/12% at
// C_rand/C_rand+1; ~70%/30% at C_near/C_near+1).
func Figure5a(sc Scale) *Report {
	cfg := core.DefaultConfig()
	c := buildOverlayCluster(sc, cfg)
	target := cfg.TargetDegree()

	snapshot := func() (atTarget, atTargetPlus1 float64, mean float64) {
		h := c.DegreeHistogram()
		return h.Fraction(target), h.Fraction(target + 1), h.Mean()
	}
	rep := &Report{
		Name:   "Figure 5(a): node degree distribution over time",
		Header: []string{"time", "deg=6", "deg=7", "mean degree"},
	}
	addRow := func(label string) {
		a, b, m := snapshot()
		rep.Rows = append(rep.Rows, []string{
			label,
			fmt.Sprintf("%.0f%%", a*100), fmt.Sprintf("%.0f%%", b*100),
			fmt.Sprintf("%.2f", m),
		})
	}
	addRow("0s")
	c.Run(5 * time.Second)
	addRow("5s")
	c.Run(sc.Warmup - 5*time.Second)
	addRow(sc.Warmup.String())

	rh, nh := c.RandDegreeHistogram(), c.NearDegreeHistogram()
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("random degrees: %.0f%% at C_rand, %.0f%% at C_rand+1 (paper: ~88%%/12%%)",
			rh.Fraction(cfg.CRand)*100, rh.Fraction(cfg.CRand+1)*100),
		fmt.Sprintf("nearby degrees: %.0f%% at C_near, %.0f%% at C_near+1 (paper: ~70%%/30%%)",
			nh.Fraction(cfg.CNear)*100, nh.Fraction(cfg.CNear+1)*100),
		"paper shape: 22% at degree 6 initially, 57% after 5 s, ~60% converged, mean ~6.4",
	)
	return rep
}

// Figure5b reproduces Figure 5(b): the average latency of overlay links
// and tree links over the first part of the adaptation (paper: tree links
// reach ~15.5 ms after 100 s versus the 91 ms random-pair average).
func Figure5b(sc Scale, until, step time.Duration) *Report {
	cfg := core.DefaultConfig()
	c := buildOverlayCluster(sc, cfg)
	rep := &Report{
		Name:   "Figure 5(b): average link latency during adaptation",
		Header: []string{"time", "overlay links", "tree links"},
	}
	for now := time.Duration(0); now <= until; now += step {
		if now > 0 {
			c.Run(step)
		}
		rep.Rows = append(rep.Rows, []string{
			now.String(),
			fmtDur(c.AvgOverlayLinkLatency()),
			fmtDur(c.AvgTreeLinkLatency()),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper shape: both fall fast in the first minute; tree links end much cheaper than overlay average (15.5 ms vs 91 ms random baseline)")
	return rep
}

// LinkChanges reproduces adaptation summary (1): the number of changed
// links per second drops (approximately exponentially) as the overlay
// converges.
func LinkChanges(sc Scale, until, bucket time.Duration) *Report {
	cfg := core.DefaultConfig()
	series := metrics.NewTimeSeries(bucket)
	counting := false
	c := netsim.New(netsim.Options{Nodes: sc.Nodes, Seed: sc.Seed, Config: cfg, Trace: func(s dtrace.Span) {
		if counting && (s.Kind == dtrace.KindLinkUp || s.Kind == dtrace.KindLinkDown) {
			series.Observe(s.End, 1)
		}
	}})
	c.BootstrapMembership(cfg.MemberViewSize / 2)
	c.WireRandom(cfg.TargetDegree() / 2)
	// The initial random wiring is the starting point, not adaptation.
	counting = true
	c.Start(0)
	c.Run(until)
	rep := &Report{
		Name:   "Adaptation summary (1): link changes per second over time",
		Header: []string{"window start", "changes/s"},
	}
	for _, p := range series.Points() {
		rep.Rows = append(rep.Rows, []string{
			p.Start.String(),
			fmt.Sprintf("%.1f", p.Sum/bucket.Seconds()),
		})
	}
	rep.Notes = append(rep.Notes, "paper shape: the change rate drops exponentially over time")
	return rep
}

// RandomLinkSweep reproduces adaptation summary (2): the average overlay
// link latency grows almost linearly with the number of random links per
// node (total degree fixed at 6).
func RandomLinkSweep(sc Scale) *Report {
	rep := &Report{
		Name:   "Adaptation summary (2): link latency vs number of random links",
		Header: []string{"C_rand", "C_near", "avg overlay link latency", "connected"},
	}
	for crand := 0; crand <= 5; crand++ {
		cfg := core.DefaultConfig()
		cfg.CRand = crand
		cfg.CNear = 6 - crand
		c := buildOverlayCluster(sc, cfg)
		c.Run(sc.Warmup)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", crand),
			fmt.Sprintf("%d", cfg.CNear),
			fmtDur(c.AvgOverlayLinkLatency()),
			fmt.Sprintf("%.3f", c.LargestComponentRatio()),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper shape: latency grows ~linearly with C_rand; C_rand=0 leaves the overlay partitioned",
	)
	return rep
}

// Diameter reproduces adaptation summary (3): the overlay hop diameter
// grows slowly (6 -> 10) as the system grows from 256 to 8,192 nodes.
func Diameter(sizes []int, warmup time.Duration, seed int64) *Report {
	rep := &Report{
		Name:   "Adaptation summary (3): overlay diameter vs system size",
		Header: []string{"nodes", "diameter (hops)"},
	}
	for _, n := range sizes {
		sc := Scale{Nodes: n, Warmup: warmup, Seed: seed}
		cfg := core.DefaultConfig()
		c := buildOverlayCluster(sc, cfg)
		c.Run(warmup)
		d := c.OverlayGraph().Diameter()
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("%d", n), fmt.Sprintf("%d", d)})
	}
	rep.Notes = append(rep.Notes, "paper shape: 6 hops at 256 nodes growing to 10 at 8,192")
	return rep
}
