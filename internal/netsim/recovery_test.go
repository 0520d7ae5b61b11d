package netsim

import (
	"testing"
	"time"

	"gocast/internal/core"
)

// downWhilePublishing kills the victim, injects `count` tracked messages
// at 2/s while it is down, then restarts it through `contact`.
func downWhilePublishing(c *Cluster, victim, contact, count int, payload []byte) {
	c.Kill(victim)
	for k := 0; k < count; k++ {
		src := k % 8
		if src == victim {
			src = 8
		}
		s := src
		c.Engine.After(time.Duration(k)*500*time.Millisecond, func() { c.Inject(s, payload) })
	}
	c.Run(time.Duration(count) * 500 * time.Millisecond)
	c.Restart(victim, contact)
}

// TestRestartCatchesUpViaSync is the tentpole acceptance scenario: a node
// misses >= 50 messages while down, restarts with a bumped incarnation,
// and converges to zero recovery violations within bounded virtual time —
// with the backlog arriving through the digest sync protocol, not through
// gossip pulls.
func TestRestartCatchesUpViaSync(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SyncInterval = 10 * time.Second
	c := buildCluster(t, 32, cfg, 44)
	c.Run(60 * time.Second)

	const victim, contact, missed = 9, 3, 60
	downWhilePublishing(c, victim, contact, missed, []byte("payload-while-down"))
	c.Run(60 * time.Second)

	if v := c.RecoveryViolations(10 * time.Second); v != 0 {
		t.Fatalf("recovery violations = %d, want 0 (restarted node did not catch up)", v)
	}
	st := c.Node(victim).Stats()
	if st.SyncItemsRecv < missed {
		t.Errorf("victim recovered %d items via sync, want >= %d", st.SyncItemsRecv, missed)
	}
	if st.PullsSent != 0 {
		t.Errorf("victim issued %d pulls; backlog recovery must ride the sync protocol", st.PullsSent)
	}
	// The whole cluster must agree: no stably-up node is missing anything
	// either (the sync traffic must not have disturbed dissemination).
	if v := c.AtomicityViolations(10 * time.Second); v != 0 {
		t.Errorf("atomicity violations among stably-up nodes = %d, want 0", v)
	}
}

// TestRestartWithoutSyncLeavesGaps is the control: the identical scenario
// with the sync protocol disabled leaves the restarted node permanently
// missing the messages published while it was down — gossip announces each
// ID at most once per neighbor, so there is no other path to the backlog.
func TestRestartWithoutSyncLeavesGaps(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SyncInterval = -1
	c := buildCluster(t, 32, cfg, 44)
	c.Run(60 * time.Second)

	const victim, contact, missed = 9, 3, 60
	downWhilePublishing(c, victim, contact, missed, []byte("payload-while-down"))
	c.Run(2 * time.Minute)

	if v := c.RecoveryViolations(10 * time.Second); v == 0 {
		t.Fatalf("recovery violations = 0 without sync; the control scenario no longer isolates the protocol")
	} else if v != missed {
		t.Logf("recovery violations without sync = %d (missed %d)", v, missed)
	}
	// The gaps are invisible to the stably-up criterion, which excuses
	// restarted lives — exactly the blind spot sync exists to close.
	if v := c.AtomicityViolations(10 * time.Second); v != 0 {
		t.Errorf("atomicity violations among stably-up nodes = %d, want 0", v)
	}
}

// TestSyncPacingUnderByteCap puts the same catch-up through a tight
// SyncBatchBytes budget: every SyncReply must respect the cap (allowing
// the one guaranteed item), the transfer must self-pace request-by-request
// via the More loop, and the victim must still converge.
func TestSyncPacingUnderByteCap(t *testing.T) {
	const (
		victim      = 9
		contact     = 3
		missed      = 60
		payloadSize = 200
		batchBytes  = 2 << 10
	)
	cfg := core.DefaultConfig()
	cfg.SyncInterval = 10 * time.Second
	cfg.SyncBatchBytes = batchBytes

	type replyStat struct{ items, bytes int }
	var replies []replyStat
	requests := 0
	c := New(Options{
		Nodes:  32,
		Seed:   45,
		Config: cfg,
		Observer: func(from, to core.NodeID, m core.Message) {
			switch v := m.(type) {
			case *core.SyncReply:
				if int(to) == victim {
					s := replyStat{items: len(v.Items)}
					for _, it := range v.Items {
						s.bytes += len(it.Payload)
					}
					replies = append(replies, s)
				}
			case *core.SyncRequest:
				if int(from) == victim {
					requests++
				}
			}
		},
	})
	c.BootstrapMembership(cfg.MemberViewSize / 2)
	c.WireRandom(cfg.TargetDegree() / 2)
	c.Start(0)
	c.Run(60 * time.Second)

	// The 60 missed payloads alone span ~6 batch budgets, so catch-up for
	// this slow consumer cannot fit one reply.
	downWhilePublishing(c, victim, contact, missed, make([]byte, payloadSize))
	for k := 0; k < missed; k++ {
		// Publishing continues during catch-up.
		c.Engine.After(time.Duration(k)*500*time.Millisecond, func() {
			if s := c.randomLive(); s >= 0 {
				c.Inject(s, make([]byte, payloadSize))
			}
		})
	}
	c.Run(2 * time.Minute)

	if v := c.RecoveryViolations(10 * time.Second); v != 0 {
		t.Fatalf("recovery violations under byte cap = %d, want 0", v)
	}
	if len(replies) == 0 {
		t.Fatalf("no sync replies observed toward the victim")
	}
	for i, r := range replies {
		if r.bytes > batchBytes+payloadSize {
			t.Errorf("reply %d carried %d payload bytes, budget %d", i, r.bytes, batchBytes)
		}
	}
	// 60 missed messages of 200 bytes (~12 KiB) against a 2 KiB budget
	// need at least 6 reply batches: the More loop must have split the
	// transfer into several request/reply exchanges.
	if len(replies) < 6 {
		t.Errorf("transfer used %d reply batches; expected the More loop to paginate", len(replies))
	}
	if requests < len(replies) {
		t.Errorf("replies (%d) outnumber victim requests (%d): pacing must be request-driven", len(replies), requests)
	}
}

// TestRecoveryOffendersMatchViolations checks, on a kill-and-restart run
// with and without sync, that RecoveryOffenders names a message exactly
// when RecoveryViolations counts a gap, that every named message is one
// the restarted node missed, and that the atomicity view (which excuses
// restarted lives) names none.
func TestRecoveryOffendersMatchViolations(t *testing.T) {
	for _, sync := range []time.Duration{10 * time.Second, -1} {
		cfg := core.DefaultConfig()
		cfg.SyncInterval = sync
		c := buildCluster(t, 32, cfg, 44)
		c.Run(60 * time.Second)
		const victim, contact, missed = 9, 3, 20
		downWhilePublishing(c, victim, contact, missed, []byte("payload-while-down"))
		c.Run(time.Minute)

		grace := 10 * time.Second
		v, off := c.RecoveryViolations(grace), c.RecoveryOffenders(grace)
		if (v > 0) != (len(off) > 0) {
			t.Fatalf("sync %v: %d recovery violations but %d offenders", sync, v, len(off))
		}
		if sync < 0 && v == 0 {
			t.Fatalf("sync off: no recovery violations; the control no longer leaves gaps")
		}
		if len(off) > v {
			t.Errorf("sync %v: %d offenders exceed %d violations", sync, len(off), v)
		}
		for _, id := range off {
			if c.Node(victim).Seen(id) {
				t.Errorf("sync %v: offender %v was delivered to the restarted node", sync, id)
			}
		}
		if a := c.AtomicityOffenders(grace); len(a) != 0 {
			t.Errorf("sync %v: %d atomicity offenders among stably-up nodes", sync, len(a))
		}
	}
}
