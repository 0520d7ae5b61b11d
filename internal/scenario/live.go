package scenario

import (
	"fmt"
	"sync"
	"time"

	"gocast/internal/churn"
	"gocast/internal/core"
	"gocast/internal/fault"
	"gocast/internal/latency"
	"gocast/internal/live"
)

// liveSub runs a scenario on the wall-clock runtime over the in-memory
// transport. Scenario durations are compressed by the scenario's
// LiveScale; the fault/churn/traffic schedule still derives from the
// master seed (each phase's fault.Spec seed and the churn plan seeds), so
// a run replays its exact fault schedule even though protocol timing
// floats.
type liveSub struct {
	c       *live.Cluster
	ctl     *live.FaultController
	scale   float64
	start   time.Time
	initial int

	mu sync.Mutex
	// got records every observed delivery: message -> receiving slots.
	got map[core.MessageID]map[int]bool
	// tracked lists the scenario's own publishes in order.
	tracked []core.MessageID
	pubAt   map[core.MessageID]time.Time
	// disturbed marks slots the scenario crashed/restarted (rolling) —
	// excluded from atomicity judgment alongside churned slots.
	disturbed map[int]bool
	churned   bool
	protected int
	churnRuns sync.WaitGroup
	churnged  int64
	timers    []*time.Timer
	closed    bool
}

func newLiveSub(s *Scenario, seed int64) *liveSub {
	ls := &liveSub{
		scale:     s.liveScale(),
		initial:   s.TotalNodes(),
		got:       make(map[core.MessageID]map[int]bool),
		pubAt:     make(map[core.MessageID]time.Time),
		disturbed: make(map[int]bool),
		protected: protectedCount(s),
	}
	ls.ctl = live.NewFaultController()
	// Give the in-memory fabric the same wide-area latency diversity
	// netsim runs under (scaled to the compressed wall clock). The
	// proximity-replacement sweep — the only mechanism that rewires a
	// degree-saturated overlay, e.g. re-merging two healed partition
	// halves — needs heavy-tailed pairwise latencies to ever fire; a flat
	// fabric leaves a split-brain permanent. Sized past churn's growth
	// ceiling so joined nodes get sites too.
	mat := latency.Synthesize(2*s.TotalNodes(), SubSeed(seed, "latency"))
	scale := ls.scale
	cfg := live.FastConfig()
	if s.CoopcastThreshold > 0 {
		cfg.CoopcastThreshold = s.CoopcastThreshold
	}
	ls.c = live.NewCluster(live.ClusterOptions{
		Nodes:  s.TotalNodes(),
		Config: cfg,
		Seed:   SubSeed(seed, "live"),
		Faults: ls.ctl,
		PairLatency: func(i, j int) time.Duration {
			n := mat.Sites()
			return time.Duration(float64(mat.OneWay(i%n, j%n)) * scale)
		},
		OnDeliver: func(node int, id core.MessageID, _ []byte) {
			ls.mu.Lock()
			m := ls.got[id]
			if m == nil {
				m = make(map[int]bool)
				ls.got[id] = m
			}
			m[node] = true
			ls.mu.Unlock()
		},
	})
	ls.start = time.Now()
	return ls
}

// protectedCount returns how many leading slots belong to Protected
// groups.
func protectedCount(s *Scenario) int {
	n := 0
	for _, g := range s.Groups {
		if !g.Protected {
			break
		}
		n += g.Nodes
	}
	return n
}

func (l *liveSub) name() string { return "live" }

// now converts wall time back to scenario time.
func (l *liveSub) now() time.Duration {
	return time.Duration(float64(time.Since(l.start)) / l.scale)
}

func (l *liveSub) run(d time.Duration) {
	time.Sleep(time.Duration(float64(d) * l.scale))
}

func (l *liveSub) after(d time.Duration, fn func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	t := time.AfterFunc(time.Duration(float64(d)*l.scale), fn)
	l.timers = append(l.timers, t)
}

func (l *liveSub) nodeCount() int   { return l.c.Size() }
func (l *liveSub) alive(i int) bool { return l.c.Alive(i) }

func (l *liveSub) publish(i int, payload []byte) bool {
	n := l.c.Node(i)
	if n == nil || n.Stopped() {
		return false
	}
	id, err := n.Publish(payload)
	if err != nil {
		// ErrOverloaded while Shedding is graceful degradation, not a
		// scenario failure; the no-critical-sheds invariant guards the
		// messages that were admitted.
		return false
	}
	l.mu.Lock()
	l.tracked = append(l.tracked, id)
	l.pubAt[id] = time.Now()
	l.mu.Unlock()
	return true
}

// setFaults installs f on the shared controller with its delays scaled
// to the compressed wall clock, and its rates scaled up so
// bytes-per-scenario-second are preserved; a slow link thus stays
// proportionate to the compressed phase.
func (l *liveSub) setFaults(f *fault.Spec) {
	if f != nil {
		scaled := *f
		scaled.Rules = make([]fault.Link, len(f.Rules))
		for k, r := range f.Rules {
			r.Extra = time.Duration(float64(r.Extra) * l.scale)
			r.Jitter = time.Duration(float64(r.Jitter) * l.scale)
			r.BytesPerSec = int64(float64(r.BytesPerSec) / l.scale)
			scaled.Rules[k] = r
		}
		f = &scaled
	}
	l.ctl.Set(f)
}

func (l *liveSub) startChurn(opts churn.Options) {
	l.mu.Lock()
	l.churned = true
	l.mu.Unlock()
	// Compress the plan: same expected event count in scale× the time.
	p := opts.Plan
	opts.Plan = churn.Plan{
		Seed:          p.Seed,
		Duration:      time.Duration(float64(p.Duration) * l.scale),
		JoinPerMin:    p.JoinPerMin / l.scale,
		LeavePerMin:   p.LeavePerMin / l.scale,
		CrashPerMin:   p.CrashPerMin / l.scale,
		RestartPerMin: p.RestartPerMin / l.scale,
	}
	l.churnRuns.Add(1)
	go func() {
		defer l.churnRuns.Done()
		st := l.c.RunChurn(opts)
		l.mu.Lock()
		l.churnged += int64(st.Events())
		l.mu.Unlock()
	}()
}

func (l *liveSub) churnEvents() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.churnged
}

func (l *liveSub) crash(i int) {
	l.mu.Lock()
	l.disturbed[i] = true
	l.mu.Unlock()
	l.c.Crash(i)
}

func (l *liveSub) restart(i int) {
	l.c.Restart(i, restartContact(i))
}

func (l *liveSub) treeNode(i int) (parent, root, degree int) {
	n := l.c.Node(i)
	if n == nil || n.Stopped() {
		return -1, -1, 0
	}
	p, r := int(n.Parent()), int(n.Root())
	if p == i {
		p = -1
	}
	return p, r, n.Degree()
}

func (l *liveSub) converged() string {
	n := l.c.Size()
	running := make([]bool, n)
	count := 0
	for i := 0; i < n; i++ {
		if l.alive(i) {
			running[i] = true
			count++
		}
	}
	if count == 0 {
		return "no running nodes"
	}
	// Stale links + adjacency in one sweep.
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		if !running[i] {
			continue
		}
		for _, nb := range l.c.Node(i).Neighbors() {
			j := int(nb.ID)
			if j < 0 || j >= n {
				continue
			}
			if running[j] && nb.Inc < l.c.Incarnation(j) {
				return fmt.Sprintf("node %d holds a stale link to %d (inc %d < %d)", i, j, nb.Inc, l.c.Incarnation(j))
			}
			adj[i] = append(adj[i], j)
		}
	}
	// Connectivity over running nodes.
	first := -1
	for i := 0; i < n; i++ {
		if running[i] {
			first = i
			break
		}
	}
	seen := make([]bool, n)
	queue := []int{first}
	seen[first] = true
	reached := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		reached++
		for _, j := range adj[i] {
			if running[j] && !seen[j] {
				seen[j] = true
				queue = append(queue, j)
			}
		}
	}
	if reached < count {
		return fmt.Sprintf("overlay split: %d of %d running nodes reachable", reached, count)
	}
	// Root agreement.
	root := -1
	for i := 0; i < n; i++ {
		if !running[i] {
			continue
		}
		r := int(l.c.Node(i).Root())
		if root == -1 {
			root = r
		} else if r != root {
			return fmt.Sprintf("root disagreement: node %d says %d, others say %d", i, r, root)
		}
	}
	if root < 0 || root >= n || !l.alive(root) {
		return fmt.Sprintf("agreed root %d is not running", root)
	}
	return ""
}

// atomicityViolations judges the slots that were never disturbed: initial
// nodes the scenario itself did not crash/restart, excluding every
// unprotected slot once churn has run (churn targets are not individually
// reported by the churn layer). grace is expressed in scenario time.
func (l *liveSub) atomicityViolations(grace time.Duration) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	cutoff := time.Now().Add(-time.Duration(float64(grace) * l.scale))
	v := 0
	for i := 0; i < l.initial; i++ {
		if l.disturbed[i] || (l.churned && i >= l.protected) || !l.alive(i) {
			continue
		}
		for _, id := range l.tracked {
			if l.pubAt[id].After(cutoff) {
				continue
			}
			if !l.got[id][i] {
				v++
			}
		}
	}
	return v
}

// offenderTrace is unavailable on the live substrate: scenario clusters
// run with sampling off (wall-clock runs keep the multicast path cold),
// so there are no spans to stitch an offender from.
func (l *liveSub) offenderTrace(string, time.Duration) string { return "" }

func (l *liveSub) recoveryViolations(time.Duration) (int, bool) { return 0, false }

func (l *liveSub) criticalSheds() int64 {
	var total int64
	for i := 0; i < l.c.Size(); i++ {
		if n := l.c.Node(i); n != nil {
			total += n.OverloadStats()["shed_critical"]
		}
	}
	return total
}

func (l *liveSub) faultCounters() map[string]int64 { return l.ctl.Counters() }

func (l *liveSub) published() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.tracked))
}

func (l *liveSub) close() {
	l.mu.Lock()
	l.closed = true
	timers := l.timers
	l.timers = nil
	l.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	l.churnRuns.Wait()
	l.c.Close()
}
