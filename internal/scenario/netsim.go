package scenario

import (
	"fmt"
	"time"

	"gocast/internal/churn"
	"gocast/internal/core"
	"gocast/internal/dtrace"
	"gocast/internal/fault"
	"gocast/internal/netsim"
)

// netsimSub runs a scenario on the discrete-event simulator. Everything —
// protocol, faults, churn, traffic — executes on one virtual clock seeded
// from the scenario master seed, so a run is a pure function of
// (scenario, seed).
type netsimSub struct {
	c     *netsim.Cluster
	spans *dtrace.Buffer
	start time.Duration
	pubs  int64
	churn []*churn.Stats
}

// netsimConfig is the protocol timing scenarios run under: the paper's
// structure with periods short enough that warmup/drain measured in
// virtual minutes suffices for convergence and sync-based recovery.
func netsimConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.HeartbeatPeriod = 5 * time.Second
	cfg.RootTimeout = 15 * time.Second
	cfg.SyncInterval = 5 * time.Second
	cfg.QuarantineWindow = 5 * time.Second
	return cfg
}

func newNetsimSub(s *Scenario, seed int64, cfg core.Config) *netsimSub {
	n := s.TotalNodes()
	// Trace every message so an atomicity failure can name its offender's
	// dissemination path. The ring holds recent spans only; an old
	// offender's trace may be partial, which still beats a bare count.
	if cfg.TraceSampleEvery == 0 {
		cfg.TraceSampleEvery = 1
	}
	spans := dtrace.NewBuffer(8 * dtrace.DefaultBufferCapacity)
	c := netsim.New(netsim.Options{
		Nodes:  n,
		Seed:   SubSeed(seed, "netsim"),
		Config: cfg,
		Trace: func(s dtrace.Span) {
			if s.Sampled {
				spans.Record(s)
			}
		},
	})
	c.BootstrapMembership(cfg.MemberViewSize / 2)
	init := cfg.TargetDegree() / 2
	if init < 1 {
		init = 1
	}
	c.WireRandom(init)
	c.Start(0)
	// Give the overload invariant teeth in simulation: bound Repair and
	// Background admission the way the live mailbox lanes do, leave
	// Critical unbounded, and assert zero Critical sheds.
	if hasFlood(s) {
		c.SetAdmission(netsim.AdmissionCaps{Repair: 64, Background: 8})
	}
	return &netsimSub{c: c, spans: spans, start: c.Now()}
}

func hasFlood(s *Scenario) bool {
	for _, p := range s.Phases {
		if p.Flood != nil {
			return true
		}
	}
	return false
}

func (n *netsimSub) name() string                     { return "netsim" }
func (n *netsimSub) now() time.Duration               { return n.c.Now() - n.start }
func (n *netsimSub) run(d time.Duration)              { n.c.Run(d) }
func (n *netsimSub) after(d time.Duration, fn func()) { n.c.Engine.After(d, fn) }
func (n *netsimSub) nodeCount() int                   { return n.c.Nodes() }
func (n *netsimSub) alive(i int) bool                 { return i < n.c.Nodes() && n.c.Alive(i) }

func (n *netsimSub) publish(i int, payload []byte) bool {
	if !n.alive(i) {
		return false
	}
	n.c.Inject(i, payload)
	n.pubs++
	return true
}

func (n *netsimSub) setFaults(f *fault.Spec) { n.c.SetFaults(f) }

func (n *netsimSub) startChurn(opts churn.Options) {
	n.churn = append(n.churn, n.c.StartChurn(opts))
}

func (n *netsimSub) churnEvents() int64 {
	var total int64
	for _, st := range n.churn {
		total += int64(st.Events())
	}
	return total
}

func (n *netsimSub) crash(i int) { n.c.Kill(i) }

func (n *netsimSub) restart(i int) {
	if contact := restartContact(i); n.c.Alive(contact) {
		n.c.Restart(i, contact)
	}
}

func (n *netsimSub) treeNode(i int) (parent, root, degree int) {
	nd := n.c.Node(i)
	p, r := int(nd.Parent()), int(nd.Root())
	if p == i {
		p = -1
	}
	return p, r, nd.Degree()
}

func (n *netsimSub) converged() string {
	if s := n.c.StaleLinks(); s != 0 {
		return fmt.Sprintf("%d stale links to dead incarnations", s)
	}
	if r := n.c.LargestComponentRatio(); r < 1 {
		return fmt.Sprintf("overlay split: largest component holds %.0f%% of live nodes", r*100)
	}
	root := -1
	for i := 0; i < n.c.Nodes(); i++ {
		if !n.c.Alive(i) {
			continue
		}
		r := int(n.c.Node(i).Root())
		if root == -1 {
			root = r
		} else if r != root {
			return fmt.Sprintf("root disagreement: node %d says %d, others say %d", i, r, root)
		}
	}
	if root >= 0 && !n.c.Alive(root) {
		return fmt.Sprintf("agreed root %d is dead", root)
	}
	if root >= 0 && !n.c.TreeSpans(root) {
		return "tree does not span the live membership"
	}
	return ""
}

func (n *netsimSub) atomicityViolations(grace time.Duration) int {
	return n.c.AtomicityViolations(grace)
}

func (n *netsimSub) offenderTrace(inv string, grace time.Duration) string {
	list := n.c.AtomicityOffenders
	if inv == InvRecovery {
		list = n.c.RecoveryOffenders
	}
	offenders := list(grace)
	if len(offenders) == 0 {
		return ""
	}
	traces := dtrace.Stitch(n.spans.Snapshot())
	// Prefer the newest offender: its spans are least likely to have been
	// evicted from the ring.
	for i := len(offenders) - 1; i >= 0; i-- {
		id := offenders[i]
		if t := dtrace.Find(traces, int32(id.Source), id.Seq); t != nil {
			return t.Render()
		}
	}
	return ""
}

func (n *netsimSub) recoveryViolations(grace time.Duration) (int, bool) {
	return n.c.RecoveryViolations(grace), true
}

func (n *netsimSub) criticalSheds() int64 {
	return n.c.AdmissionSheds()[core.ClassCritical]
}

func (n *netsimSub) faultCounters() map[string]int64 { return n.c.FaultStats().Counters() }

func (n *netsimSub) published() int64 { return n.pubs }

func (n *netsimSub) close() {}
