package netsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gocast/internal/churn"
	"gocast/internal/core"
)

func TestRestartRejoinsWithBumpedIncarnation(t *testing.T) {
	cfg := core.DefaultConfig()
	c := buildCluster(t, 32, cfg, 30)
	c.Run(60 * time.Second)

	victim := 9
	c.Kill(victim)
	c.Run(20 * time.Second)
	c.Restart(victim, 3)
	if got := c.Incarnation(victim); got != 1 {
		t.Fatalf("incarnation after restart = %d, want 1", got)
	}
	c.Run(90 * time.Second)

	n := c.Node(victim)
	if d := n.Degree(); d < cfg.TargetDegree()-1 {
		t.Errorf("restarted node degree = %d, want near %d", d, cfg.TargetDegree())
	}
	if _, attached := n.DistToRoot(); !attached {
		t.Errorf("restarted node never re-attached to the tree")
	}
	// No live node may hold a link to the victim's dead past life.
	for i := 0; i < c.Nodes(); i++ {
		if !c.Alive(i) || i == victim {
			continue
		}
		for _, nb := range c.Node(i).Neighbors() {
			if int(nb.ID) == victim && nb.Inc != 1 {
				t.Errorf("node %d linked to %d under incarnation %d, want 1", i, victim, nb.Inc)
			}
		}
	}
	if s := c.StaleLinks(); s != 0 {
		t.Errorf("stale links after restart settle = %d, want 0", s)
	}
	if got := c.SumCounters().RejoinsObserved; got == 0 {
		t.Errorf("no node observed the rejoin (RejoinsObserved = 0)")
	}
	if c.Restarts() != 1 {
		t.Errorf("Restarts() = %d, want 1", c.Restarts())
	}
	// The restart counts as a tree repair once the node re-attaches.
	if c.TreeRepairs().Count() == 0 {
		t.Errorf("no tree-repair latency recorded for the restart")
	}

	// The rejoined node participates in multicast again.
	c.Inject(0, nil)
	c.Run(5 * time.Second)
	if rec := c.Delays(); rec.Misses() != 0 {
		t.Fatalf("misses after restart = %d", rec.Misses())
	}
}

func TestRestartSoonAfterCrashIsClean(t *testing.T) {
	// Restarting before neighbors even detect the crash must not wedge the
	// overlay: dead-life timers are inert and detection of the old life's
	// broken connections is suppressed once the new life exists.
	cfg := core.DefaultConfig()
	c := buildCluster(t, 24, cfg, 31)
	c.Run(60 * time.Second)
	c.Kill(5)
	c.Run(100 * time.Millisecond) // well under DetectionDelay
	c.Restart(5, 0)
	c.Run(90 * time.Second)
	if s := c.StaleLinks(); s != 0 {
		t.Errorf("stale links = %d, want 0", s)
	}
	if q := c.LargestComponentRatio(); q < 1 {
		t.Errorf("overlay disconnected after quick restart: q=%.3f", q)
	}
	if d := c.Node(5).Degree(); d < cfg.TargetDegree()-1 {
		t.Errorf("quickly-restarted node degree = %d, want near %d", d, cfg.TargetDegree())
	}
}

func TestChurnOrchestratorDeterministic(t *testing.T) {
	plan := churn.Plan{
		Seed:          99,
		Duration:      5 * time.Minute,
		JoinPerMin:    1,
		LeavePerMin:   1,
		CrashPerMin:   2,
		RestartPerMin: 2,
	}
	run := func() (*Cluster, *churn.Stats) {
		c := buildCluster(t, 40, core.DefaultConfig(), 32)
		c.Run(60 * time.Second)
		st := c.StartChurn(churn.Options{Plan: plan, Protected: 8, MinAlive: 24, MaxNodes: 56})
		c.Run(plan.Duration)
		return c, st
	}
	c1, s1 := run()
	c2, s2 := run()
	if *s1 != *s2 {
		t.Fatalf("churn stats differ across identical runs: %+v vs %+v", *s1, *s2)
	}
	// Eligibility depends only on earlier churn operations, so these
	// counts pin the runner's policy and draw order.
	want := churn.Stats{Joins: 9, Leaves: 9, Crashes: 12, Restarts: 3}
	if *s1 != want || c1.Nodes() != 49 || c1.AliveCount() != 31 {
		t.Fatalf("churn = %+v with %d slots, %d alive; want %+v with 49 slots, 31 alive",
			*s1, c1.Nodes(), c1.AliveCount(), want)
	}
	// Which slots the runner picked shows in the final slot states: the
	// incarnation of each live slot, "-" for each dead one.
	var fp strings.Builder
	for i := 0; i < c1.Nodes(); i++ {
		if c1.Alive(i) {
			fmt.Fprint(&fp, c1.Incarnation(i))
		} else {
			fp.WriteByte('-')
		}
	}
	if want := "000000000-100--000-000-0-0-0-000010-0-----00--0--"; fp.String() != want {
		t.Fatalf("slot states = %s\nwant          %s", fp.String(), want)
	}
	if c1.Nodes() != c2.Nodes() {
		t.Fatalf("cluster sizes differ: %d vs %d", c1.Nodes(), c2.Nodes())
	}
	for i := 0; i < c1.Nodes(); i++ {
		if c1.Alive(i) != c2.Alive(i) || c1.Incarnation(i) != c2.Incarnation(i) {
			t.Fatalf("node %d state differs: alive %v/%v inc %d/%d",
				i, c1.Alive(i), c2.Alive(i), c1.Incarnation(i), c2.Incarnation(i))
		}
	}
	// Protected nodes must never have churned.
	for i := 0; i < 8; i++ {
		if !c1.Alive(i) || c1.Incarnation(i) != 0 {
			t.Errorf("protected node %d churned: alive=%v inc=%d", i, c1.Alive(i), c1.Incarnation(i))
		}
	}
}

// TestChurnSoak is the acceptance soak from the issue: >=50 sim nodes,
// >=30 virtual minutes of mixed crash/restart/leave/join churn at >=5
// events/min, with multicasts flowing throughout. It asserts zero
// atomicity violations among nodes that were stably up, overlay-degree
// recovery, and that no link ever settles on a dead incarnation.
func TestChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak skipped in -short mode")
	}
	cfg := core.DefaultConfig()
	const (
		nodes     = 60
		protected = 12
	)
	c := buildCluster(t, nodes, cfg, 33)
	c.Run(60 * time.Second)

	plan := churn.Plan{
		Seed:          77,
		Duration:      30 * time.Minute,
		JoinPerMin:    1,
		LeavePerMin:   1.5,
		CrashPerMin:   1.5,
		RestartPerMin: 2,
	}
	if plan.EventsPerMinute() < 5 {
		t.Fatalf("plan rate %.1f/min below the 5/min floor", plan.EventsPerMinute())
	}
	st := c.StartChurn(churn.Options{Plan: plan, Protected: protected, MinAlive: 40, MaxNodes: 90})

	// A multicast every 10 virtual seconds from a rotating stable source.
	for k := 0; int(k)*10 < int(plan.Duration/time.Second); k++ {
		src := k % protected
		c.Engine.After(time.Duration(k)*10*time.Second, func() { c.Inject(src, nil) })
	}

	c.Run(plan.Duration)
	// Let repair finish after the last event before judging state.
	c.Run(3 * time.Minute)

	// Eligibility depends only on earlier churn operations, not protocol
	// timing, so these counts pin the runner's policy and draw order.
	want := churn.Stats{Joins: 26, Leaves: 54, Crashes: 52, Restarts: 64, Skipped: 1}
	if *st != want || c.Nodes() != 86 || c.AliveCount() != 44 {
		t.Fatalf("churn = %+v with %d slots, %d alive; want %+v with 86 slots, 44 alive",
			*st, c.Nodes(), c.AliveCount(), want)
	}

	if v := c.AtomicityViolations(30 * time.Second); v != 0 {
		t.Errorf("atomicity violations among stably-up nodes = %d, want 0", v)
	}
	if s := c.StaleLinks(); s != 0 {
		t.Errorf("links to dead incarnations at end of soak = %d, want 0", s)
	}
	if q := c.LargestComponentRatio(); q < 1 {
		t.Errorf("overlay disconnected after soak: q=%.3f", q)
	}

	// Degree recovery: random degrees back at C..C+1 for nearly everyone,
	// and no live node far from target total degree.
	rh := c.RandDegreeHistogram()
	if got := rh.Fraction(cfg.CRand) + rh.Fraction(cfg.CRand+1); got < 0.9 {
		t.Errorf("fraction at random degree C..C+1 after soak = %.2f, want >= 0.9", got)
	}
	for i := 0; i < c.Nodes(); i++ {
		if !c.Alive(i) {
			continue
		}
		if d := c.Node(i).Degree(); d < cfg.TargetDegree()-2 || d > cfg.TargetDegree()+3 {
			t.Errorf("node %d degree %d far from target %d after soak", i, d, cfg.TargetDegree())
		}
	}

	rep := c.TreeRepairs()
	if rep.Count() == 0 {
		t.Errorf("no tree repairs recorded during soak")
	} else {
		cdf := rep.CDF()
		t.Logf("tree repairs: %d, p50=%v p99=%v", rep.Count(), cdf.Quantile(0.5), cdf.Quantile(0.99))
	}
	t.Logf("redelivered across restarts: %d", c.Redelivered())
	cnt := c.SumCounters()
	t.Logf("stale-inc rejects=%d obits recorded=%d honored=%d stale links dropped=%d rejoins=%d self-refutes=%d",
		cnt.StaleIncRejects, cnt.ObitsRecorded, cnt.ObitsHonored, cnt.StaleLinksDropped, cnt.RejoinsObserved, cnt.SelfRefutes)
}
