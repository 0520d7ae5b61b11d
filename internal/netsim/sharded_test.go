package netsim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"gocast/internal/core"
	"gocast/internal/latency"
)

// shardWorkload drives one full simulation — warmup, churn (kills,
// restarts, a runtime join), a tracked message stream, drain — at the
// given shard count and returns the cluster for fingerprinting. Every
// piece of randomness hangs off the seed, so two calls with different
// shard counts must produce identical results if the barrier protocol
// is sound.
func shardWorkload(t *testing.T, shards int, seed int64) *Cluster {
	t.Helper()
	c := New(Options{
		Nodes:  160,
		Seed:   seed,
		Config: core.DefaultConfig(),
		Shards: shards,
	})
	c.BootstrapMembership(c.opts.Config.MemberViewSize / 2)
	c.WireRandom(c.opts.Config.TargetDegree() / 2)
	c.Start(0)
	c.Run(40 * time.Second)

	killed := c.KillFraction(0.05)
	c.InjectStream(25, 5, []byte("shard-oracle"))
	c.Run(3 * time.Second)
	for _, i := range killed {
		c.Restart(i, 0)
	}
	c.AddNode(1)
	c.Run(20 * time.Second)
	return c
}

// fingerprint reduces a finished run to a byte string covering every
// externally observable result: the exact per-(message, node) delivery
// times, per-node protocol counters, churn accounting, and the repair
// latency distribution (as a sorted multiset — cross-shard completion
// order is not deterministic, the set of samples is).
func fingerprint(c *Cluster) string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d alive=%d restarts=%d redelivered=%d\n",
		c.Nodes(), c.AliveCount(), c.Restarts(), c.Redelivered())
	for m := range c.recv {
		fmt.Fprintf(&b, "msg%d@%d src=%d:", m, c.injectTimes[m], c.sources[m])
		for i := range c.recv[m] {
			fmt.Fprintf(&b, " %d", c.recv[m][i])
		}
		b.WriteByte('\n')
	}
	for i := 0; i < c.Nodes(); i++ {
		fmt.Fprintf(&b, "node%d alive=%v inc=%d stats=%+v parent=%d\n",
			i, c.Alive(i), c.Incarnation(i), c.Node(i).Stats(), c.Node(i).Parent())
	}
	cdf := c.TreeRepairs().CDF()
	fmt.Fprintf(&b, "repairs n=%d p50=%d p99=%d max=%d\n",
		c.TreeRepairs().Count(), cdf.Quantile(0.5), cdf.Quantile(0.99), cdf.Max())
	fmt.Fprintf(&b, "atomicity=%d recovery=%d stale=%d\n",
		c.AtomicityViolations(5*time.Second), c.RecoveryViolations(5*time.Second), c.StaleLinks())
	return b.String()
}

// TestShardedMatchesSequentialOracle is the shard barrier protocol's
// regression net: the same seeded workload — churn, restarts, a runtime
// join, and a tracked message stream — must produce results identical
// to the sequential oracle at every shard count. Run under -race this
// also exercises the barrier protocol's happens-before edges.
func TestShardedMatchesSequentialOracle(t *testing.T) {
	counts := []int{1, 2, 7, runtime.NumCPU()}
	want := ""
	wantEff := 0
	for _, shards := range counts {
		c := shardWorkload(t, shards, 20260808)
		got := fingerprint(c)
		if shards == 1 {
			if c.EffectiveShards() != 1 {
				t.Fatalf("shards=1: EffectiveShards = %d", c.EffectiveShards())
			}
			want = got
			continue
		}
		if shards >= 2 && c.EffectiveShards() < 2 {
			t.Fatalf("shards=%d: expected parallel execution, got EffectiveShards=%d", shards, c.EffectiveShards())
		}
		wantEff++
		if got != want {
			t.Errorf("shards=%d (effective %d): results diverge from sequential oracle\n%s",
				shards, c.EffectiveShards(), firstDiff(want, got))
		}
	}
	if wantEff == 0 {
		t.Fatal("no parallel configuration was exercised")
	}
}

// TestShardedKillInjectTie pins the ordering of a kill's detection
// notices against a stream injection on the same instant: KillFraction
// at t arms the notices for t+DetectionDelay (1 s), and the 20th
// injection at 20/s lands on that very instant. Both are control events,
// so every engine runs them in scheduling order — notices first — and
// the sharded results match the sequential oracle on every seed.
func TestShardedKillInjectTie(t *testing.T) {
	run := func(shards int, seed int64) (*Cluster, string) {
		c := New(Options{Nodes: 64, Seed: seed, Config: core.DefaultConfig(), Shards: shards})
		c.BootstrapMembership(c.opts.Config.MemberViewSize / 2)
		c.WireRandom(c.opts.Config.TargetDegree() / 2)
		c.Start(0)
		c.Run(20 * time.Second)
		c.KillFraction(0.2)
		c.InjectStream(40, 20, []byte("tie"))
		c.Run(10 * time.Second)
		return c, fingerprint(c)
	}
	for seed := int64(1); seed <= 24; seed++ {
		seq, want := run(1, seed)
		for _, shards := range []int{2, 4} {
			c, got := run(shards, seed)
			if c.EffectiveShards() != shards {
				t.Fatalf("seed %d: EffectiveShards = %d, want %d", seed, c.EffectiveShards(), shards)
			}
			if got != want || c.ExecutedEvents() != seq.ExecutedEvents() {
				t.Errorf("seed %d, %d shards: results diverge from sequential oracle (%d vs %d events)\n%s",
					seed, shards, c.ExecutedEvents(), seq.ExecutedEvents(), firstDiff(want, got))
			}
			var shardSum uint64
			for s, e := range c.ShardEvents() {
				if e == 0 {
					t.Errorf("seed %d, %d shards: shard %d executed no events", seed, shards, s)
				}
				shardSum += e
			}
			if windows, covered := c.ShardWindows(); shardSum >= c.ExecutedEvents() || windows == 0 || covered != c.Engine.Now() {
				t.Errorf("seed %d, %d shards: shard events %d of %d, %d windows covering %v of %v",
					seed, shards, shardSum, c.ExecutedEvents(), windows, covered, c.Engine.Now())
			}
		}
	}
}

// TestShardedDeterministicAcrossRuns pins run-to-run determinism of the
// parallel engine itself: same seed, same shard count, byte-identical
// results even though OS scheduling interleaves the shard goroutines
// differently each time.
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	a := fingerprint(shardWorkload(t, 4, 7))
	b := fingerprint(shardWorkload(t, 4, 7))
	if a != b {
		t.Errorf("sharded run not reproducible across runs\n%s", firstDiff(a, b))
	}
}

// TestShardedOneSiteFallsBackSequential is the adversarial zero-
// lookahead case: with every node on a single site there is no
// inter-region latency floor, no safe window, and therefore no legal
// partition — the cluster must fall back to sequential execution and
// still run correctly.
func TestShardedOneSiteFallsBackSequential(t *testing.T) {
	c := New(Options{
		Nodes:  32,
		Seed:   3,
		Config: core.DefaultConfig(),
		Matrix: latency.NewMatrix(1),
		Shards: 8,
	})
	if c.EffectiveShards() != 1 {
		t.Fatalf("one-site cluster: EffectiveShards = %d, want 1", c.EffectiveShards())
	}
	c.BootstrapMembership(8)
	c.WireRandom(3)
	c.Start(0)
	c.Run(20 * time.Second)
	c.Inject(1, []byte("local"))
	c.Run(5 * time.Second)
	if v := c.AtomicityViolations(2 * time.Second); v != 0 {
		t.Errorf("one-site fallback run: %d atomicity violations", v)
	}
}

// TestShardedZeroMatrixFallsBackSequential covers the other degenerate
// partition: an unlabeled matrix with unset (zero) cross-site entries
// has no positive latency floor between any cut, so sharding must be
// refused rather than produce an unsafe window.
func TestShardedZeroMatrixFallsBackSequential(t *testing.T) {
	c := New(Options{
		Nodes:  8,
		Seed:   5,
		Config: core.DefaultConfig(),
		Matrix: latency.NewMatrix(4), // all-zero off-diagonals
		Shards: 4,
	})
	if c.EffectiveShards() != 1 {
		t.Fatalf("zero-matrix cluster: EffectiveShards = %d, want 1", c.EffectiveShards())
	}
}

// firstDiff renders the first differing line of two multi-line strings,
// with one line of context, keeping failure output readable.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  oracle:  %s\n  sharded: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(la), len(lb))
}
