package netsim

import (
	"testing"
	"time"

	"gocast/internal/core"
)

// testEnv returns a fresh env speaking for node i's current life, for
// driving Cluster.send directly.
func (c *Cluster) testEnv(i int) *env {
	return &env{c: c, sh: c.shards[c.shardOf[i]], id: core.NodeID(i), gen: c.gen[i], rng: newBatchRand(99)}
}

// TestAdmissionCapsShedByClass pins the admission mechanics: each class
// sheds independently once its per-node in-flight cap fills, uncapped
// classes never shed, and delivering a message frees its slot.
func TestAdmissionCapsShedByClass(t *testing.T) {
	c := New(Options{Nodes: 4, Seed: 11, Config: core.DefaultConfig()})
	c.SetAdmission(AdmissionCaps{Repair: 4, Background: 2})
	e := c.testEnv(0)

	for i := 0; i < 10; i++ {
		c.send(e, 1, &core.SyncRequest{}, true)
	}
	for i := 0; i < 10; i++ {
		c.send(e, 1, &core.PullRequest{}, true)
	}
	for i := 0; i < 10; i++ {
		c.send(e, 1, &core.Gossip{}, false)
	}
	sheds := c.AdmissionSheds()
	if got := sheds[core.ClassBackground]; got != 8 {
		t.Errorf("background sheds = %d, want 8 (cap 2 of 10)", got)
	}
	if got := sheds[core.ClassRepair]; got != 6 {
		t.Errorf("repair sheds = %d, want 6 (cap 4 of 10)", got)
	}
	if got := sheds[core.ClassCritical]; got != 0 {
		t.Errorf("critical sheds = %d, want 0 (uncapped)", got)
	}

	// Draining the in-flight deliveries frees the slots: the same burst
	// admits the same prefix again.
	c.Run(time.Second)
	for i := 0; i < 3; i++ {
		c.send(e, 1, &core.SyncRequest{}, true)
	}
	if got := c.AdmissionSheds()[core.ClassBackground]; got != 9 {
		t.Errorf("background sheds after drain = %d, want 9 (2 re-admitted)", got)
	}
}

// TestAdmissionDisabledByDefault guards the hot path: without SetAdmission
// nothing is counted or shed, even under a heavy stream.
func TestAdmissionDisabledByDefault(t *testing.T) {
	cfg := core.DefaultConfig()
	c := New(Options{Nodes: 16, Seed: 12, Config: cfg})
	c.BootstrapMembership(8)
	c.WireRandom(3)
	c.Start(0)
	c.Run(2 * time.Second)
	c.InjectStream(50, 100, []byte("flood"))
	c.Run(5 * time.Second)
	for cls, n := range c.AdmissionSheds() {
		if n != 0 {
			t.Errorf("%v sheds = %d with admission disabled, want 0", cls, n)
		}
	}
	if c.inflight != nil {
		t.Error("inflight counters allocated without SetAdmission")
	}
}

// TestAdmissionFloodProtectsCritical runs a flood against tight Repair and
// Background caps: repair-layer traffic sheds, Critical tree forwards
// never do, and every tracked message still reaches every node — shed
// repair rounds are retried, so admission costs latency, not atomicity.
func TestAdmissionFloodProtectsCritical(t *testing.T) {
	cfg := core.DefaultConfig()
	c := New(Options{Nodes: 24, Seed: 13, Config: cfg})
	c.BootstrapMembership(12)
	c.WireRandom(3)
	c.Start(0)
	c.Run(5 * time.Second) // settle the overlay and tree
	// The Repair cap must leave retry headroom: a pull whose reply is shed
	// retries against other holders, and once it exhausts them the only
	// fallback is sync — whose watermark digest cannot express interior
	// store holes. A cap that starves pulls outright (1-2) turns transient
	// sheds into permanent losses; 8 pressures the flood peak while letting
	// the post-flood retries through.
	c.SetAdmission(AdmissionCaps{Repair: 8, Background: 1})
	c.InjectStream(100, 200, []byte("flood payload"))
	c.Run(60 * time.Second)

	sheds := c.AdmissionSheds()
	if got := sheds[core.ClassCritical]; got != 0 {
		t.Errorf("critical sheds = %d under flood, want 0", got)
	}
	if sheds[core.ClassRepair] == 0 {
		t.Error("repair sheds = 0, flood never pressured the caps")
	}
	if v := c.AtomicityViolations(10 * time.Second); v != 0 {
		t.Errorf("atomicity violations = %d with admission caps, want 0", v)
	}
	t.Logf("sheds under flood: critical=%d repair=%d background=%d",
		sheds[core.ClassCritical], sheds[core.ClassRepair], sheds[core.ClassBackground])
}
