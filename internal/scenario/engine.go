package scenario

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"gocast/internal/churn"
	"gocast/internal/core"
	"gocast/internal/fault"
)

// Options configures one scenario run.
type Options struct {
	// Substrate selects the backend: "netsim" (default) or "live".
	Substrate string
	// Seed overrides the scenario's declared seed when nonzero.
	Seed int64
	// Metrics, when set, receives gocast_scenario_* updates.
	Metrics *Metrics
	// Progress, when set, is updated live for /statusz.
	Progress *Progress
	// Config overrides the netsim protocol config (zero value = default
	// scenario timing). Ignored on the live substrate. Used by tests to
	// break the protocol deliberately (e.g. disable sync) and prove the
	// invariant checker bites.
	Config *core.Config
}

// Run executes a scenario and returns its report. The error is non-nil
// only for structural problems (invalid scenario, unknown substrate);
// invariant failures are reported in Report.Passed / Report.Violations.
func Run(s *Scenario, opts Options) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	seed := s.Seed
	if opts.Seed != 0 {
		seed = opts.Seed
	}
	var sub substrate
	switch opts.Substrate {
	case "", "netsim":
		cfg := netsimConfig()
		if opts.Config != nil {
			cfg = *opts.Config
		}
		if s.CoopcastThreshold > 0 {
			cfg.CoopcastThreshold = s.CoopcastThreshold
		}
		sub = newNetsimSub(s, seed, cfg)
	case "live":
		sub = newLiveSub(s, seed)
	default:
		return nil, fmt.Errorf("scenario: unknown substrate %q", opts.Substrate)
	}
	defer sub.close()

	e := &engine{s: s, seed: seed, sub: sub, m: opts.Metrics, prog: opts.Progress}
	e.rep = &Report{
		Scenario:  s.Name,
		Substrate: sub.name(),
		Seed:      seed,
		Nodes:     s.TotalNodes(),
	}
	e.prog.update(func(p *ProgressSnapshot) {
		*p = ProgressSnapshot{Scenario: s.Name, Substrate: sub.name(), Seed: seed, Phase: "warmup", PhaseIndex: -1}
	})
	e.run()
	return e.rep, nil
}

// engine drives one scenario run over a substrate.
type engine struct {
	s    *Scenario
	seed int64
	sub  substrate
	m    *Metrics
	prog *Progress
	rep  *Report

	phaseName   string
	trafficStop atomic.Bool
	// perInvPhase caps recorded violation examples per (invariant, phase).
	perInvPhase map[[2]string]int
	// latched invariants are only recorded once per phase after tripping.
	shedsSeen int64
	checks    int64
	viols     int64
}

func (e *engine) run() {
	s := e.s
	e.perInvPhase = make(map[[2]string]int)
	e.phaseName = "warmup"
	e.startTraffic()
	if s.Warmup > 0 {
		e.sub.run(time.Duration(s.Warmup))
	}

	for i := range s.Phases {
		e.runPhase(i)
	}

	e.drainAndJudge()
}

// startTraffic launches the steady publisher pumps. Traffic begins at
// warmup end and stops when the drain begins, so end-of-run grace windows
// judge a closed message set.
func (e *engine) startTraffic() {
	s := e.s
	for _, g := range s.Groups {
		if g.Role != RolePublisher || g.Rate <= 0 {
			continue
		}
		lo, hi, _ := s.GroupRange(g.Name)
		rng := rand.New(rand.NewSource(SubSeed(e.seed, "traffic/"+g.Name)))
		interval := time.Duration(float64(time.Second) / g.Rate)
		payload := make([]byte, g.Payload)
		seq := 0
		var pump func()
		pump = func() {
			if e.trafficStop.Load() {
				return
			}
			i := lo + seq%(hi-lo)
			seq++
			if e.sub.alive(i) {
				e.sub.publish(i, payload)
			}
			// Jitter the cadence ±25% so publishes do not phase-lock with
			// protocol timers; the stream stays seed-deterministic.
			j := interval/2 + time.Duration(rng.Int63n(int64(interval)))
			e.sub.after(j, pump)
		}
		e.sub.after(time.Duration(s.Warmup)+interval, pump)
	}
}

// runPhase installs phase i's faults, runs its duration under continuous
// checks, and clears the faults at the barrier.
func (e *engine) runPhase(i int) {
	s := e.s
	p := &s.Phases[i]
	e.phaseName = p.Name
	start := e.sub.now()
	e.m.phaseTransition(i)
	e.prog.update(func(ps *ProgressSnapshot) {
		ps.Phase = p.Name
		ps.PhaseIndex = i
		ps.Elapsed = start
	})

	pr := PhaseResult{Name: p.Name, Start: start, Faults: make(map[string]int64)}
	checksBefore, violsBefore := e.checks, e.viols

	faults := e.compileFaults(i, p)
	var flapStop *atomic.Bool
	if p.Flap != nil {
		flapStop = e.startFlap(i, p, faults, &pr)
	} else {
		e.sub.setFaults(faults)
		for kind, n := range installKinds(p) {
			pr.Faults[kind] += n
			e.m.FaultInjected(kind, n)
		}
	}
	churnBefore := e.sub.churnEvents()
	if p.Churn != nil {
		e.startChurn(i, p)
	}
	var floodStop *atomic.Bool
	if p.Flood != nil {
		floodStop = e.startFlood(i, p, &pr)
	}
	if p.Rolling != nil {
		e.startRolling(i, p, &pr)
	}

	e.runChecked(time.Duration(p.Duration))

	// Phase barrier: faults clear, pumps stop, counters land.
	if flapStop != nil {
		flapStop.Store(true)
	}
	if floodStop != nil {
		floodStop.Store(true)
	}
	e.sub.setFaults(nil)
	if n := e.sub.churnEvents() - churnBefore; n > 0 {
		pr.Faults["churn"] += n
		e.m.FaultInjected("churn", n)
	}
	pr.End = e.sub.now()
	pr.Checks = int(e.checks - checksBefore)
	pr.Violations = int(e.viols - violsBefore)
	e.rep.Phases = append(e.rep.Phases, pr)
}

// compileFaults resolves a phase's group-level fault declarations to node
// indexes. The phase-wide loss rule comes first, ahead of the link rules,
// which fixes the order of the loss and jitter draws.
func (e *engine) compileFaults(i int, p *Phase) *fault.Spec {
	s := e.s
	f := &fault.Spec{Seed: SubSeed(e.seed, fmt.Sprintf("faults/%d", i))}
	if p.Loss > 0 {
		f.Rules = append(f.Rules, fault.Link{Loss: p.Loss})
	}
	cells := p.Partition
	if p.Flap != nil {
		cells = p.Flap.Cells
	}
	for _, cell := range cells {
		var idx []int
		for _, name := range cell {
			lo, hi, _ := s.GroupRange(name)
			for k := lo; k < hi; k++ {
				idx = append(idx, k)
			}
		}
		f.Partition = append(f.Partition, idx)
	}
	for _, l := range p.Links {
		lf := fault.Link{
			Extra:       time.Duration(l.Delay),
			Jitter:      time.Duration(l.Jitter),
			BytesPerSec: l.BytesPerSec,
		}
		if l.From != "" {
			lf.From.Lo, lf.From.Hi, _ = s.GroupRange(l.From)
		}
		if l.To != "" {
			lf.To.Lo, lf.To.Hi, _ = s.GroupRange(l.To)
		}
		f.Rules = append(f.Rules, lf)
	}
	return f
}

// installKinds maps a phase's static fault declarations to kind counts
// for metrics and the report (one install per kind per phase; churn,
// flood, flap, and rolling are counted per event elsewhere).
func installKinds(p *Phase) map[string]int64 {
	out := make(map[string]int64)
	if p.Partition != nil {
		out["partition"] = 1
	}
	if p.Loss > 0 {
		out["loss"] = 1
	}
	if len(p.Links) > 0 {
		out["link"] = int64(len(p.Links))
	}
	return out
}

// startFlap installs the flap's partition and schedules toggles every
// half period until the phase ends.
func (e *engine) startFlap(i int, p *Phase, faults *fault.Spec, pr *PhaseResult) *atomic.Bool {
	stop := &atomic.Bool{}
	on := true
	e.sub.setFaults(faults)
	pr.Faults["flap"]++
	e.m.FaultInjected("flap", 1)
	half := time.Duration(p.Flap.Period) / 2
	var toggle func()
	toggle = func() {
		if stop.Load() {
			return
		}
		on = !on
		if on {
			e.sub.setFaults(faults)
		} else {
			// Heal: keep non-partition faults (loss/links) active.
			healed := *faults
			healed.Partition = nil
			e.sub.setFaults(&healed)
		}
		pr.Faults["flap"]++
		e.m.FaultInjected("flap", 1)
		e.sub.after(half, toggle)
	}
	e.sub.after(half, toggle)
	return stop
}

func (e *engine) startChurn(i int, p *Phase) {
	s := e.s
	prot := protectedCount(s)
	if prot < 1 {
		prot = 1 // never churn the root slot
	}
	n := s.TotalNodes()
	e.sub.startChurn(churn.Options{
		Plan: churn.Plan{
			Seed:          SubSeed(e.seed, fmt.Sprintf("churn/%d", i)),
			Duration:      time.Duration(p.Duration),
			JoinPerMin:    p.Churn.JoinPerMin,
			LeavePerMin:   p.Churn.LeavePerMin,
			CrashPerMin:   p.Churn.CrashPerMin,
			RestartPerMin: p.Churn.RestartPerMin,
		},
		Protected: prot,
		MinAlive:  n / 2,
		MaxNodes:  n + n/2,
	})
}

// startFlood pumps extra publishes from the target group for the phase.
func (e *engine) startFlood(i int, p *Phase, pr *PhaseResult) *atomic.Bool {
	s := e.s
	stop := &atomic.Bool{}
	lo, hi, _ := s.GroupRange(p.Flood.Group)
	rng := rand.New(rand.NewSource(SubSeed(e.seed, fmt.Sprintf("flood/%d", i))))
	interval := time.Duration(float64(time.Second) / p.Flood.PerSec)
	if interval <= 0 {
		interval = time.Millisecond
	}
	payload := make([]byte, p.Flood.Payload)
	seq := 0
	var pump func()
	pump = func() {
		if stop.Load() {
			return
		}
		idx := lo + seq%(hi-lo)
		seq++
		if e.sub.alive(idx) && e.sub.publish(idx, payload) {
			pr.Faults["flood"]++
			e.m.FaultInjected("flood", 1)
		}
		j := interval/2 + time.Duration(rng.Int63n(int64(interval)))
		e.sub.after(j, pump)
	}
	e.sub.after(interval, pump)
	return stop
}

// startRolling schedules the rolling restart chain: every Every, crash
// the next group member and restart it Downtime later.
func (e *engine) startRolling(i int, p *Phase, pr *PhaseResult) {
	s := e.s
	lo, hi, _ := s.GroupRange(p.Rolling.Group)
	every := time.Duration(p.Rolling.Every)
	down := time.Duration(p.Rolling.Downtime)
	k := 0
	for at := every; at+down <= time.Duration(p.Duration); at += every {
		idx := lo + k%(hi-lo)
		k++
		target := idx
		e.sub.after(at, func() {
			if e.sub.alive(target) {
				e.sub.crash(target)
				pr.Faults["rolling"]++
				e.m.FaultInjected("rolling", 1)
			}
		})
		e.sub.after(at+down, func() {
			if !e.sub.alive(target) {
				e.sub.restart(target)
			}
		})
	}
}

// runChecked advances scenario time in CheckEvery chunks, running the
// continuous invariants between chunks.
func (e *engine) runChecked(d time.Duration) {
	step := e.s.checkEvery()
	for elapsed := time.Duration(0); elapsed < d; {
		chunk := step
		if rest := d - elapsed; rest < chunk {
			chunk = rest
		}
		e.sub.run(chunk)
		elapsed += chunk
		e.continuousCheck()
	}
}

// continuousCheck evaluates the invariants that must hold even while
// faults are live: tree validity and no Critical sheds.
func (e *engine) continuousCheck() {
	inv := e.s.Invariants
	before := e.viols
	if inv.TreeValid {
		e.checkTree()
	}
	if inv.NoCriticalSheds {
		if sheds := e.sub.criticalSheds(); sheds > e.shedsSeen {
			e.violate(InvNoCriticalSheds,
				fmt.Sprintf("%d Critical-class messages shed (was %d)", sheds, e.shedsSeen))
			e.shedsSeen = sheds
		}
	}
	e.checks++
	e.m.check(int(e.viols - before))
	e.prog.update(func(ps *ProgressSnapshot) {
		ps.Elapsed = e.sub.now()
		ps.Checks = e.checks
		ps.Violations = e.viols
	})
}

// checkTree verifies the embedded tree is acyclic and degree-bounded over
// the live membership. Partitioned segments may hold separate roots; what
// can never legitimately happen is a parent cycle or a degree blowout.
func (e *engine) checkTree() {
	n := e.sub.nodeCount()
	maxDeg := e.s.Invariants.MaxDegree
	if maxDeg == 0 {
		maxDeg = defaultMaxDegree()
	}
	parent := make([]int, n)
	for i := 0; i < n; i++ {
		parent[i] = -1
		if !e.sub.alive(i) {
			continue
		}
		p, _, deg := e.sub.treeNode(i)
		parent[i] = p
		if deg > maxDeg {
			e.violate(InvTreeValid, fmt.Sprintf("node %d degree %d exceeds bound %d", i, deg, maxDeg))
		}
	}
	// Cycle detection via iterative coloring: state 0 unvisited, 1 on
	// current path, 2 done.
	state := make([]uint8, n)
	for i := 0; i < n; i++ {
		if !e.sub.alive(i) || state[i] != 0 {
			continue
		}
		var path []int
		j := i
		for j >= 0 && j < n && e.sub.alive(j) && state[j] == 0 {
			state[j] = 1
			path = append(path, j)
			j = parent[j]
		}
		if j >= 0 && j < n && state[j] == 1 {
			e.violate(InvTreeValid, fmt.Sprintf("parent cycle through node %d", j))
		}
		for _, k := range path {
			state[k] = 2
		}
	}
}

// defaultMaxDegree derives the degree bound from the protocol's target:
// C_rand + C_near plus the adaptation slack, plus transient headroom for
// in-flight link handoffs.
func defaultMaxDegree() int {
	cfg := core.DefaultConfig()
	return cfg.TargetDegree() + cfg.DegreeSlack + 2
}

// violate records one invariant breach (capped per invariant+phase).
func (e *engine) violate(inv, detail string) {
	e.viols++
	e.rep.ViolationsTotal++
	key := [2]string{inv, e.phaseName}
	if e.perInvPhase[key] >= violationCap {
		return
	}
	e.perInvPhase[key]++
	e.rep.Violations = append(e.rep.Violations, Violation{
		Invariant: inv,
		Phase:     e.phaseName,
		At:        e.sub.now(),
		Detail:    detail,
	})
}

// drainAndJudge stops traffic, lets the system settle, polls convergence
// against its deadline, then runs the end-of-run invariants and fills the
// final report.
func (e *engine) drainAndJudge() {
	s := e.s
	inv := s.Invariants
	e.phaseName = "drain"
	e.trafficStop.Store(true)
	e.m.phaseTransition(len(s.Phases))
	e.prog.update(func(ps *ProgressSnapshot) {
		ps.Phase = "drain"
		ps.PhaseIndex = len(s.Phases)
	})

	drainStart := e.sub.now()
	drain := time.Duration(s.Drain)
	deadline := time.Duration(inv.ConvergeWithin)
	if deadline <= 0 {
		deadline = time.Duration(DefaultInvariants().ConvergeWithin)
	}
	if inv.Convergence && drain < deadline {
		drain = deadline
	}
	step := s.checkEvery()
	convergedAt := time.Duration(-1)
	lastReason := ""
	for elapsed := time.Duration(0); elapsed < drain; {
		chunk := step
		if rest := drain - elapsed; rest < chunk {
			chunk = rest
		}
		e.sub.run(chunk)
		elapsed += chunk
		e.continuousCheck()
		if inv.Convergence {
			if reason := e.sub.converged(); reason == "" {
				if convergedAt < 0 {
					convergedAt = e.sub.now() - drainStart
				}
				lastReason = ""
			} else {
				lastReason = reason
				convergedAt = -1
			}
		}
	}

	// End-of-run verdicts.
	add := func(name, status, detail string) {
		e.rep.Invariants = append(e.rep.Invariants, InvariantResult{Name: name, Status: status, Detail: detail})
	}
	judge := func(name string, enabled bool, fail bool, detail, passDetail string) {
		if !enabled {
			add(name, "skipped", "")
			return
		}
		e.checks++
		e.m.check(0)
		if fail {
			e.violate(name, detail)
			e.m.check(1)
			add(name, "FAIL", detail)
		} else {
			add(name, "pass", passDetail)
		}
	}

	grace := time.Duration(inv.Grace)
	if grace <= 0 {
		grace = 30 * time.Second
	}
	av := 0
	if inv.Atomicity {
		av = e.sub.atomicityViolations(grace)
	}
	judge(InvAtomicity, inv.Atomicity, av > 0,
		fmt.Sprintf("%d (message, stable-node) deliveries missing after %s grace", av, grace),
		fmt.Sprintf("%d published, 0 missing", e.sub.published()))
	// attachTrace adds one offender's stitched dissemination trace to the
	// violation of inv that judge just recorded, showing where its tree
	// stopped short (JSON-only; Render stays trace-free).
	attachTrace := func(inv string) {
		tr := e.sub.offenderTrace(inv, grace)
		if tr == "" {
			return
		}
		for i := len(e.rep.Violations) - 1; i >= 0; i-- {
			if e.rep.Violations[i].Invariant == inv {
				e.rep.Violations[i].Trace = tr
				return
			}
		}
	}
	if av > 0 {
		attachTrace(InvAtomicity)
	}

	// Tree validity's end verdict summarizes the continuous checks.
	treeViols := 0
	for _, v := range e.rep.Violations {
		if v.Invariant == InvTreeValid {
			treeViols++
		}
	}
	judge(InvTreeValid, inv.TreeValid, treeViols > 0,
		fmt.Sprintf("%d structural violations during run", treeViols),
		"acyclic and degree-bounded at every check")

	switch {
	case !inv.Convergence:
		add(InvConvergence, "skipped", "")
	case convergedAt >= 0 && convergedAt <= deadline:
		e.checks++
		e.m.check(0)
		add(InvConvergence, "pass", fmt.Sprintf("converged %s after faults cleared (deadline %s)", convergedAt, deadline))
	default:
		detail := fmt.Sprintf("not converged within %s", deadline)
		if lastReason != "" {
			detail += ": " + lastReason
		} else if convergedAt > deadline {
			detail = fmt.Sprintf("converged at %s, after the %s deadline", convergedAt, deadline)
		}
		e.violate(InvConvergence, detail)
		e.m.check(1)
		add(InvConvergence, "FAIL", detail)
	}

	if rv, ok := e.sub.recoveryViolations(grace); !ok {
		add(InvRecovery, "skipped", "substrate cannot judge per-life recovery")
	} else {
		judge(InvRecovery, inv.Recovery, rv > 0,
			fmt.Sprintf("%d deliveries never recovered by sync", rv),
			"every restarted node caught up by sync")
		if inv.Recovery && rv > 0 {
			attachTrace(InvRecovery)
		}
	}

	sheds := e.sub.criticalSheds()
	judge(InvNoCriticalSheds, inv.NoCriticalSheds, sheds > 0,
		fmt.Sprintf("%d Critical-class messages shed", sheds),
		"0 Critical-class sheds")

	e.rep.Duration = e.sub.now()
	e.rep.Published = e.sub.published()
	e.rep.ChurnEvents = e.sub.churnEvents()
	e.rep.FaultCounts = e.sub.faultCounters()
	e.rep.Passed = len(e.rep.Failed()) == 0 && e.rep.ViolationsTotal == 0
	e.prog.update(func(ps *ProgressSnapshot) {
		ps.Done = true
		ps.Elapsed = e.rep.Duration
		ps.Checks = e.checks
		ps.Violations = e.viols
	})
}
