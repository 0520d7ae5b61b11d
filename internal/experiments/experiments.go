// Package experiments reproduces every table and figure of the GoCast
// paper's evaluation (Section 3), plus its in-text quantitative claims and
// the ablations DESIGN.md commits to. Each runner is a pure function of a
// Scale and returns a Report whose rows mirror the paper's plots.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"gocast/internal/churn"
	"gocast/internal/core"
	"gocast/internal/metrics"
	"gocast/internal/netsim"
	"gocast/internal/pushgossip"
)

// Scale sets the size/duration knobs shared by the experiment runners.
// PaperScale reproduces the paper's setup; QuickScale is for benchmarks
// and CI.
type Scale struct {
	// Nodes is the system size (paper: 1,024; Figure 4 also uses 8,192).
	Nodes int
	// Warmup is the adaptation period before messages are injected
	// (paper: 500 s).
	Warmup time.Duration
	// Messages is the number of multicasts measured (paper: 1,000).
	Messages int
	// Rate is the injection rate in messages/second (paper: 100).
	Rate float64
	// Drain is how long after the last injection the run keeps going so
	// stragglers arrive.
	Drain time.Duration
	// Seed drives all randomness.
	Seed int64
	// Shards requests conservative parallel simulation (netsim
	// Options.Shards): results are identical at any shard count, so it is
	// purely a wall-clock knob. 0 runs sequentially.
	Shards int
}

// PaperScale is the paper's experimental setup.
func PaperScale() Scale {
	return Scale{
		Nodes:    1024,
		Warmup:   500 * time.Second,
		Messages: 1000,
		Rate:     100,
		Drain:    60 * time.Second,
		Seed:     1,
	}
}

// QuickScale is a reduced setup for benchmarks: same shape, minutes less
// wall time.
func QuickScale() Scale {
	return Scale{
		Nodes:    256,
		Warmup:   150 * time.Second,
		Messages: 100,
		Rate:     100,
		Drain:    40 * time.Second,
		Seed:     1,
	}
}

// Report is a rendered experiment result.
type Report struct {
	Name   string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Name)
	b.WriteString(metrics.Table(r.Header, r.Rows))
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// Protocol names the five systems compared in Figure 3.
type Protocol string

// The protocols of Figure 3.
const (
	ProtoGoCast    Protocol = "gocast"
	ProtoProximity Protocol = "proximity-overlay"
	ProtoRandom    Protocol = "random-overlay"
	ProtoGossip    Protocol = "gossip"
	ProtoNoWait    Protocol = "no-wait-gossip"
)

// AllProtocols lists the Figure 3 lineup in the paper's order.
func AllProtocols() []Protocol {
	return []Protocol{ProtoGoCast, ProtoProximity, ProtoRandom, ProtoGossip, ProtoNoWait}
}

// overlayConfig maps a GoCast-family protocol to its node configuration.
func overlayConfig(p Protocol) (core.Config, bool) {
	switch p {
	case ProtoGoCast:
		return core.DefaultConfig(), true
	case ProtoProximity:
		return core.ProximityOverlayConfig(), true
	case ProtoRandom:
		return core.RandomOverlayConfig(), true
	default:
		return core.Config{}, false
	}
}

// buildOverlayCluster assembles a cluster per the paper's setup: random
// partial views, C_degree/2 random links initiated per node, node 0 root.
func buildOverlayCluster(sc Scale, cfg core.Config) *netsim.Cluster {
	c := netsim.New(netsim.Options{Nodes: sc.Nodes, Seed: sc.Seed, Config: cfg, Shards: sc.Shards})
	c.BootstrapMembership(cfg.MemberViewSize / 2)
	c.WireRandom(cfg.TargetDegree() / 2)
	c.Start(0)
	return c
}

// DelayResult is the outcome of one protocol's delay measurement.
type DelayResult struct {
	Protocol Protocol
	CDF      *metrics.CDF
	Ratio    float64 // delivery ratio over (message, live node) pairs
	Extra    core.Counters
}

// RunDelay measures the delivery-delay distribution of one protocol, with
// failFrac of nodes killed (maintenance and detection frozen first, as in
// the paper's stress test) right before messages are injected.
func RunDelay(p Protocol, sc Scale, failFrac float64) DelayResult {
	if cfg, ok := overlayConfig(p); ok {
		c := buildOverlayCluster(sc, cfg)
		c.Run(sc.Warmup)
		if failFrac > 0 {
			c.SetMaintenance(false)
			c.SetDetection(false)
			c.KillFraction(failFrac)
		}
		c.InjectStream(sc.Messages, sc.Rate, nil)
		c.Run(time.Duration(float64(sc.Messages)/sc.Rate*float64(time.Second)) + sc.Drain)
		rec := c.Delays()
		return DelayResult{Protocol: p, CDF: rec.CDF(), Ratio: rec.DeliveryRatio(), Extra: c.SumCounters()}
	}
	opts := pushgossip.Options{
		Nodes:  sc.Nodes,
		Seed:   sc.Seed,
		Fanout: 5,
	}
	if p == ProtoGossip {
		opts.GossipPeriod = 100 * time.Millisecond
	}
	s := pushgossip.New(opts)
	if failFrac > 0 {
		s.KillFraction(failFrac)
	}
	s.InjectStream(sc.Messages, sc.Rate)
	s.Run(time.Duration(float64(sc.Messages)/sc.Rate*float64(time.Second)) + sc.Drain)
	rec := s.Delays()
	return DelayResult{Protocol: p, CDF: rec.CDF(), Ratio: rec.DeliveryRatio()}
}

// Figure3 reproduces Figure 3: the delay CDFs of the five protocols, with
// no failures (failFrac 0, Figure 3a) or under concurrent failures without
// repair (e.g. 0.20, Figure 3b). Rows report the delay by which a given
// fraction of (message, node) pairs were delivered.
func Figure3(sc Scale, failFrac float64) *Report {
	name := "Figure 3(a): propagation delay CDF, no failures"
	if failFrac > 0 {
		name = fmt.Sprintf("Figure 3(b): propagation delay CDF, %.0f%% nodes fail, no repair", failFrac*100)
	}
	rep := &Report{
		Name:   name,
		Header: []string{"protocol", "mean", "p50", "p90", "p99", "max", "delivered"},
	}
	protocols := AllProtocols()
	results := make([]DelayResult, len(protocols))
	runIndexed(len(protocols), func(i int) {
		results[i] = RunDelay(protocols[i], sc, failFrac)
	})
	var gocastMean, gossipMean time.Duration
	for i, p := range protocols {
		r := results[i]
		switch p {
		case ProtoGoCast:
			gocastMean = r.CDF.Mean()
		case ProtoGossip:
			gossipMean = r.CDF.Mean()
		}
		rep.Rows = append(rep.Rows, []string{
			string(p),
			fmtDur(r.CDF.Mean()),
			fmtDur(r.CDF.Quantile(0.50)),
			fmtDur(r.CDF.Quantile(0.90)),
			fmtDur(r.CDF.Quantile(0.99)),
			fmtDur(r.CDF.Max()),
			fmt.Sprintf("%.4f", r.Ratio),
		})
	}
	if gocastMean > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"gossip/gocast mean-delay factor: %.1fx (paper abstract: 8.9x no failures, 2.3x at 20%%)",
			float64(gossipMean)/float64(gocastMean)))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d nodes, %d messages at %.0f/s after %v adaptation, seed %d",
			sc.Nodes, sc.Messages, sc.Rate, sc.Warmup, sc.Seed),
		"paper shape: gocast fastest; proximity < random ~ gossip; gossip misses some nodes",
	)
	return rep
}

// Figure4 reproduces Figure 4: GoCast's delay CDF at two system sizes,
// without and with 20% failures.
func Figure4(small, large Scale, failFrac float64) *Report {
	rep := &Report{
		Name:   "Figure 4: GoCast delay vs system size",
		Header: []string{"nodes", "failures", "p50", "p90", "p99", "max", "delivered"},
	}
	type point struct {
		sc Scale
		ff float64
	}
	var points []point
	for _, sc := range []Scale{small, large} {
		for _, ff := range []float64{0, failFrac} {
			points = append(points, point{sc, ff})
		}
	}
	results := make([]DelayResult, len(points))
	runIndexed(len(points), func(i int) {
		results[i] = RunDelay(ProtoGoCast, points[i].sc, points[i].ff)
	})
	for i, pt := range points {
		r := results[i]
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", pt.sc.Nodes),
			fmt.Sprintf("%.0f%%", pt.ff*100),
			fmtDur(r.CDF.Quantile(0.50)),
			fmtDur(r.CDF.Quantile(0.90)),
			fmtDur(r.CDF.Quantile(0.99)),
			fmtDur(r.CDF.Max()),
			fmt.Sprintf("%.4f", r.Ratio),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper shape: small no-failure gap between sizes; with failures the larger system has a longer tail")
	return rep
}

// CDFSeries exposes plot-ready (seconds, fraction) series for one
// protocol, for users who want the actual curves of Figures 3/4.
func CDFSeries(p Protocol, sc Scale, failFrac float64, points int, max time.Duration) []metrics.Point {
	r := RunDelay(p, sc, failFrac)
	return r.CDF.Series(points, max)
}

// Figure3Curves renders the actual CDF curves of Figure 3 as a plot-ready
// table: one row per delay, one column per protocol, each cell the
// cumulative fraction of (message, live node) pairs delivered by that
// delay.
func Figure3Curves(sc Scale, failFrac float64, points int, max time.Duration) *Report {
	if points < 2 {
		points = 40
	}
	if max <= 0 {
		max = 4 * time.Second
	}
	name := "Figure 3(a) curves: delivery CDF by protocol"
	if failFrac > 0 {
		name = fmt.Sprintf("Figure 3(b) curves: delivery CDF by protocol, %.0f%% failures", failFrac*100)
	}
	rep := &Report{Name: name, Header: []string{"delay"}}
	protocols := AllProtocols()
	cols := make([][]metrics.Point, len(protocols))
	for _, p := range protocols {
		rep.Header = append(rep.Header, string(p))
	}
	runIndexed(len(protocols), func(i int) {
		cols[i] = CDFSeries(protocols[i], sc, failFrac, points, max)
	})
	for i := 0; i < points; i++ {
		row := []string{fmt.Sprintf("%.3fs", cols[0][i].X)}
		for _, col := range cols {
			row = append(row, fmt.Sprintf("%.4f", col[i].Y))
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes, "each cell: cumulative fraction of (message, live node) pairs delivered by the row's delay")
	return rep
}

// ChurnSweep measures dependability under sustained membership churn: for
// each total event rate, a seeded Poisson mix of joins, graceful leaves,
// crashes, and restarts runs for a fixed window while multicasts flow from
// a protected (churn-ineligible) core. Rows report the delivery-delay
// distribution, atomicity violations among stably-up nodes, links left on
// dead incarnations, tree-repair latency, and overlay-degree recovery —
// the churn-resilience counterpart of the paper's static-failure stress
// tests.
func ChurnSweep(sc Scale, ratesPerMin []float64) *Report {
	if len(ratesPerMin) == 0 {
		ratesPerMin = []float64{0, 2, 6, 12}
	}
	cfg := core.DefaultConfig()
	window := 5 * time.Minute
	msgs := sc.Messages
	if msgs > 200 {
		msgs = 200
	}
	if msgs < 1 {
		msgs = 1
	}
	gap := window / time.Duration(msgs)
	protected := cfg.LandmarkCount
	if protected < sc.Nodes/16 {
		protected = sc.Nodes / 16
	}
	rep := &Report{
		Name: "Churn sweep: delivery and recovery vs churn rate",
		Header: []string{"events/min", "executed", "restarts", "p50", "p99", "delivered",
			"atomic-viol", "stale-links", "repair-p50", "degree-ok"},
	}
	rows := make([][]string, len(ratesPerMin))
	runIndexed(len(ratesPerMin), func(ri int) {
		rate := ratesPerMin[ri]
		c := buildOverlayCluster(sc, cfg)
		c.Run(sc.Warmup)
		plan := churn.Plan{
			Seed:          sc.Seed + 7,
			Duration:      window,
			JoinPerMin:    rate * 0.15,
			LeavePerMin:   rate * 0.25,
			CrashPerMin:   rate * 0.25,
			RestartPerMin: rate * 0.35,
		}
		st := c.StartChurn(churn.Options{
			Plan:      plan,
			Protected: protected,
			MinAlive:  sc.Nodes / 2,
			MaxNodes:  sc.Nodes * 3 / 2,
		})
		for k := 0; k < msgs; k++ {
			src := k % protected
			c.Engine.After(time.Duration(k)*gap, func() { c.Inject(src, nil) })
		}
		c.Run(window + sc.Drain + 2*time.Minute)

		rec := c.Delays()
		cdf := rec.CDF()
		repair := "-"
		if tr := c.TreeRepairs(); tr.Count() > 0 {
			repair = fmtDur(tr.CDF().Quantile(0.5))
		}
		rh := c.RandDegreeHistogram()
		rows[ri] = []string{
			fmt.Sprintf("%.1f", rate),
			fmt.Sprintf("%d", st.Events()),
			fmt.Sprintf("%d", c.Restarts()),
			fmtDur(cdf.Quantile(0.50)),
			fmtDur(cdf.Quantile(0.99)),
			fmt.Sprintf("%.4f", rec.DeliveryRatio()),
			fmt.Sprintf("%d", c.AtomicityViolations(30*time.Second)),
			fmt.Sprintf("%d", c.StaleLinks()),
			repair,
			fmt.Sprintf("%.3f", rh.Fraction(cfg.CRand)+rh.Fraction(cfg.CRand+1)),
		}
	})
	rep.Rows = append(rep.Rows, rows...)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d nodes, %d messages over a %v churn window, first %d nodes protected, seed %d",
			sc.Nodes, msgs, window, protected, sc.Seed),
		"event mix per rate: 15% join, 25% leave, 25% crash, 35% restart",
		"atomic-viol: messages missed by nodes stably up since before the injection (want 0)",
		"stale-links: links still naming a dead incarnation at the end (want 0)",
		"degree-ok: fraction of live nodes back at random degree C..C+1",
	)
	return rep
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}
