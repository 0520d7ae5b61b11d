package live

import (
	"testing"
	"time"

	"gocast/internal/churn"
	"gocast/internal/core"
)

// awaitRunningDegree waits until every running node has at least min
// neighbors.
func awaitRunningDegree(c *Cluster, min int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for i := 0; i < c.Size(); i++ {
			if n := c.Node(i); !n.Stopped() && n.Degree() < min {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
		time.Sleep(50 * time.Millisecond)
	}
	return false
}

func TestLiveRestartRejoinsWithBumpedIncarnation(t *testing.T) {
	c := NewCluster(ClusterOptions{Nodes: 10, Config: FastConfig(), Seed: 50})
	defer c.Close()
	if !c.AwaitDegree(2, 10*time.Second) {
		t.Fatalf("cluster never converged")
	}

	victim := 7
	c.Crash(victim)
	time.Sleep(2 * time.Second) // let neighbors detect and quarantine
	if !c.Restart(victim, 0) {
		t.Fatalf("Restart(%d) refused", victim)
	}
	if got := c.Incarnation(victim); got != 1 {
		t.Fatalf("incarnation after restart = %d, want 1", got)
	}
	if got := c.Node(victim).Entry().Inc; got != 1 {
		t.Fatalf("restarted node's entry carries Inc %d, want 1", got)
	}
	if !awaitRunningDegree(c, 2, 15*time.Second) {
		t.Fatalf("restarted node never rebuilt its overlay (degree %d)", c.Node(victim).Degree())
	}

	// No running node may hold a link to the victim's dead past life.
	deadline := time.Now().Add(10 * time.Second)
	for {
		stale := 0
		for i := 0; i < c.Size(); i++ {
			n := c.Node(i)
			if n.Stopped() || i == victim {
				continue
			}
			for _, nb := range n.Neighbors() {
				if int(nb.ID) == victim && nb.Inc != 1 {
					stale++
				}
			}
		}
		if stale == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d links to the dead incarnation remain", stale)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The rejoin shows up in the churn counters of at least one peer.
	var rejoins int64
	for i := 0; i < c.Size(); i++ {
		if n := c.Node(i); !n.Stopped() {
			rejoins += n.ChurnStats()["rejoins_observed"]
		}
	}
	if rejoins == 0 {
		t.Errorf("no peer observed the rejoin")
	}

	// And the revived node participates in dissemination again.
	id := c.Node(0).Multicast([]byte("after-restart"))
	deadline = time.Now().Add(10 * time.Second)
	for !c.Node(victim).Seen(id) {
		if time.Now().After(deadline) {
			t.Fatalf("restarted node never received a post-restart multicast")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestLiveChurnSoak runs the wall-clock churn orchestrator against an
// in-memory cluster: joins, graceful leaves, crashes, and restarts while
// multicasts flow, then checks the group heals and no link settles on a
// dead incarnation. Guarded by -short; see README for the soak matrix.
func TestLiveChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("live churn soak skipped in -short mode")
	}
	const protected = 5
	c := NewCluster(ClusterOptions{Nodes: 16, Config: FastConfig(), Seed: 51})
	defer c.Close()
	if !c.AwaitDegree(2, 15*time.Second) {
		t.Fatalf("cluster never converged")
	}

	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-tick.C:
				c.Node(k % protected).Multicast([]byte("churn-payload"))
			}
		}
	}()

	plan := churn.Plan{
		Seed:          52,
		Duration:      40 * time.Second,
		JoinPerMin:    6,
		LeavePerMin:   6,
		CrashPerMin:   9,
		RestartPerMin: 9,
	}
	st := c.RunChurn(churn.Options{Plan: plan, Protected: protected, MinAlive: 10, MaxNodes: 24})
	close(stop)
	t.Logf("live churn: %+v; %d slots, %d running, %d restarts", st, c.Size(), c.AliveCount(), c.Restarts())
	// The event/skip pattern is deterministic for a given plan seed: the
	// schedule is fixed and eligibility depends only on prior churn ops.
	if st.Joins == 0 || st.Leaves == 0 || st.Crashes == 0 || st.Restarts == 0 {
		t.Fatalf("soak did not exercise all event kinds: %+v", st)
	}

	// Heal, then judge: overlay rebuilt and incarnation-clean.
	if !awaitRunningDegree(c, 2, 20*time.Second) {
		t.Fatalf("running nodes did not recover degree after churn")
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		stale := 0
		for i := 0; i < c.Size(); i++ {
			n := c.Node(i)
			if n.Stopped() {
				continue
			}
			for _, nb := range n.Neighbors() {
				j := int(nb.ID)
				if j < c.Size() && !c.Node(j).Stopped() && nb.Inc < c.Incarnation(j) {
					stale++
				}
			}
		}
		if stale == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d stale-incarnation links remain after churn", stale)
		}
		time.Sleep(200 * time.Millisecond)
	}

	// A fresh multicast reaches every running node.
	id := c.Node(0).Multicast([]byte("final"))
	deadline = time.Now().Add(15 * time.Second)
	for {
		missing := 0
		for i := 0; i < c.Size(); i++ {
			if n := c.Node(i); !n.Stopped() && !n.Seen(id) {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d running nodes never received the final multicast", missing)
		}
		time.Sleep(100 * time.Millisecond)
	}

	var cs core.Counters
	for i := 0; i < c.Size(); i++ {
		if n := c.Node(i); !n.Stopped() {
			s := n.Stats()
			cs.StaleIncRejects += s.StaleIncRejects
			cs.ObitsRecorded += s.ObitsRecorded
			cs.RejoinsObserved += s.RejoinsObserved
		}
	}
	t.Logf("counters: stale-inc rejects=%d obits=%d rejoins=%d", cs.StaleIncRejects, cs.ObitsRecorded, cs.RejoinsObserved)
}
