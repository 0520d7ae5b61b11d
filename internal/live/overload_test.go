package live

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"gocast/internal/core"
)

// overloadTestNode builds a single node on a private MemNetwork with a
// quiet governor (long eval interval) so tests can drive the mailbox and
// state machine directly.
func overloadTestNode(t *testing.T, ov OverloadOptions) *Node {
	t.Helper()
	if ov.EvalInterval == 0 {
		ov.EvalInterval = time.Hour
	}
	if ov.Logf == nil {
		ov.Logf = t.Logf
	}
	net := NewMemNetwork(0, 1)
	n := NewNode(NodeOptions{
		ID:        1,
		Config:    core.DefaultConfig(),
		Transport: net.Endpoint("n1"),
		Seed:      1,
		Overload:  ov,
	})
	t.Cleanup(n.Close)
	n.BecomeRoot()
	return n
}

// TestMailboxOverflowCountsDrops pins the fix for the silent tryPost drop:
// overflowing a mailbox lane increments gocast_live_mailbox_dropped_total
// and attributes the shed to the right class.
func TestMailboxOverflowCountsDrops(t *testing.T) {
	n := overloadTestNode(t, OverloadOptions{MailboxBackground: 4})

	// Park the event loop so nothing drains.
	gate := make(chan struct{})
	n.post(func() { <-gate })

	admitted, shed := 0, 0
	for i := 0; i < 10; i++ {
		if n.enqueue(core.ClassBackground, false, func() {}) {
			admitted++
		} else {
			shed++
		}
	}
	// Release the loop before touching the stats views: they collect via
	// the event loop.
	close(gate)
	if admitted != 4 || shed != 6 {
		t.Fatalf("admitted=%d shed=%d, want 4 admitted and 6 shed", admitted, shed)
	}
	if got := n.mbDropped.Value(); got != 6 {
		t.Errorf("gocast_live_mailbox_dropped_total = %d, want 6", got)
	}
	if got := n.OverloadStats()["shed_background"]; got != 6 {
		t.Errorf("shed_background = %d, want 6", got)
	}
	if got := n.OverloadStats()["shed_critical"]; got != 0 {
		t.Errorf("shed_critical = %d, want 0", got)
	}
	if got := n.statsView("live")["mailbox_dropped"]; got != 6 {
		t.Errorf("statsView(live)[mailbox_dropped] = %d, want 6", got)
	}
}

// TestMailboxPriorityOrdering pins the admission order: Critical work runs
// before queued Repair work, which runs before queued Background work,
// regardless of enqueue order.
func TestMailboxPriorityOrdering(t *testing.T) {
	n := overloadTestNode(t, OverloadOptions{})

	gate := make(chan struct{})
	n.post(func() { <-gate })

	var order []string
	done := make(chan struct{})
	n.enqueue(core.ClassBackground, false, func() { order = append(order, "background") })
	n.enqueue(core.ClassRepair, false, func() { order = append(order, "repair") })
	n.enqueue(core.ClassCritical, false, func() {
		order = append(order, "critical")
	})
	n.enqueue(core.ClassBackground, false, func() {
		order = append(order, "background2")
		close(done)
	})
	close(gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("queued work did not run")
	}
	want := []string{"critical", "repair", "background", "background2"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

// TestLoopPanicRecovered pins satellite (b): a panicking callback on the
// event loop is recovered, counted, marks the node unhealthy, and the loop
// keeps serving.
func TestLoopPanicRecovered(t *testing.T) {
	n := overloadTestNode(t, OverloadOptions{})
	if err := n.Health(); err != nil {
		t.Fatalf("pre-panic Health() = %v, want nil", err)
	}

	n.post(func() { panic("injected test panic") })

	// The loop must survive: a follow-up call still completes.
	deadline := time.After(5 * time.Second)
	for n.loopPanics.Value() == 0 {
		select {
		case <-deadline:
			t.Fatal("panic was not recovered/counted")
		case <-time.After(time.Millisecond):
		}
	}
	if d := n.Degree(); d != 0 {
		t.Fatalf("Degree() after panic = %d, want 0 (loop should keep serving)", d)
	}
	if got := n.loopPanics.Value(); got != 1 {
		t.Errorf("gocast_live_loop_panics_total = %d, want 1", got)
	}
	if err := n.Health(); err == nil {
		t.Error("Health() = nil after event-loop panic, want unhealthy")
	}
}

// TestPublishSheddingRejects pins the backpressure API: while the node is
// Shedding, Publish returns ErrOverloaded without sending, Multicast
// returns the zero ID, and recovery re-admits publishes.
func TestPublishSheddingRejects(t *testing.T) {
	n := overloadTestNode(t, OverloadOptions{})

	if _, err := n.Publish([]byte("ok")); err != nil {
		t.Fatalf("healthy Publish: %v", err)
	}
	n.gov.level.store(core.OverloadShedding)
	if _, err := n.Publish([]byte("no")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shedding Publish err = %v, want ErrOverloaded", err)
	}
	if id := n.Multicast([]byte("no")); id != (core.MessageID{}) {
		t.Fatalf("shedding Multicast id = %v, want zero", id)
	}
	if got := n.pubRejected.Value(); got != 2 {
		t.Errorf("publish_rejected = %d, want 2", got)
	}
	if err := n.Health(); err == nil {
		t.Error("Health() = nil while Shedding, want unhealthy")
	}
	n.gov.level.store(core.OverloadHealthy)
	if _, err := n.Publish([]byte("again")); err != nil {
		t.Fatalf("recovered Publish: %v", err)
	}
}

// TestGovernorHysteresis drives the state machine directly through a
// pressure spike and release, pinning the transition rules: upward moves
// are immediate, downward moves need HysteresisTicks consecutive calm
// evaluations, and a pressure bounce resets the countdown.
func TestGovernorHysteresis(t *testing.T) {
	g := &governor{opts: OverloadOptions{}.withDefaults()}
	h := g.opts.HysteresisTicks

	if got := g.step(0, 0, 0, 0); got != core.OverloadHealthy {
		t.Fatalf("idle step -> %v, want healthy", got)
	}
	// Background congestion degrades but does not shed.
	if got := g.step(0, 0.6, 0, 0); got != core.OverloadDegraded {
		t.Fatalf("worst=0.6 -> %v, want degraded", got)
	}
	// Critical saturation sheds immediately.
	if got := g.step(0.9, 0.9, 0, 0); got != core.OverloadShedding {
		t.Fatalf("crit=0.9 -> %v, want shedding", got)
	}
	// Calm evaluations: no transition until the hysteresis window elapses.
	for i := 0; i < h-1; i++ {
		if got := g.step(0, 0, 0, 0); got != core.OverloadShedding {
			t.Fatalf("calm step %d -> %v, want still shedding", i, got)
		}
	}
	// A bounce resets the countdown.
	if got := g.step(0.9, 0.9, 0, 0); got != core.OverloadShedding {
		t.Fatalf("bounce -> %v, want shedding", got)
	}
	for i := 0; i < h-1; i++ {
		if got := g.step(0, 0, 0, 0); got != core.OverloadShedding {
			t.Fatalf("post-bounce calm step %d -> %v, want still shedding", i, got)
		}
	}
	// The final calm step completes the window; fully calm skips Degraded.
	if got := g.step(0, 0, 0, 0); got != core.OverloadHealthy {
		t.Fatalf("final calm step -> %v, want healthy", got)
	}

	// Memory budget pressure alone degrades, then sheds at the budget.
	if got := g.step(0, 0, 0.8, 0); got != core.OverloadDegraded {
		t.Fatalf("mem=0.8 -> %v, want degraded", got)
	}
	if got := g.step(0, 0, 1.1, 0); got != core.OverloadShedding {
		t.Fatalf("mem=1.1 -> %v, want shedding", got)
	}
	// Mem pressure clears but repair queues stay busy: exit Shedding into
	// Degraded (not Healthy) after the window.
	for i := 0; i < h; i++ {
		g.step(0, 0.6, 0, 0)
	}
	if g.cur != core.OverloadDegraded {
		t.Fatalf("busy exit -> %v, want degraded", g.cur)
	}
	// Shed activity alone keeps the node out of Healthy.
	for i := 0; i < 2*h; i++ {
		g.step(0, 0, 0, 5)
	}
	if g.cur != core.OverloadDegraded {
		t.Fatalf("shedding activity -> %v, want degraded", g.cur)
	}
}

// TestMailboxYieldsBeforeShedding pins the transient-overflow rule: a
// poster that finds the Repair lane full yields the processor once, and a
// loop that was merely waiting for the CPU drains the lane so nothing is
// shed; a loop that cannot make room (here: parked) still sheds. One P
// makes the first half deterministic: the consumer cannot run until the
// poster yields.
func TestMailboxYieldsBeforeShedding(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const lane = 8
	mb := newMailbox([core.NumClasses]int{lane, lane, lane})
	ran := 0
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() { // the event loop
		defer close(done)
		for range mb.wake {
			for {
				fn, ok := mb.pop()
				if !ok {
					break
				}
				fn()
			}
		}
	}()
	admitted := 0
	for i := 0; i < 3*lane; i++ {
		if mb.push(core.ClassRepair, func() { ran++ }, false) == admitOK {
			admitted++
		}
	}
	// Every 61st scheduling round the Go scheduler serves its global queue
	// first, and a yield then comes straight back; that can happen to one
	// of the few yields here, never to two.
	if shed := mb.shedTotal(); shed > 1 {
		t.Fatalf("shed %d of %d units although the loop only needed the CPU", shed, 3*lane)
	}

	// Let the loop drain, then park it inside a closure: yielding cannot
	// make room now.
	for mb.depths()[core.ClassRepair] > 0 {
		runtime.Gosched()
	}
	mb.push(core.ClassCritical, func() { <-gate }, false)
	for mb.depths()[core.ClassCritical] > 0 {
		runtime.Gosched()
	}
	shed := 0
	for i := 0; i < 2*lane; i++ {
		if mb.push(core.ClassRepair, func() { ran++ }, false) == admitShed {
			shed++
		}
	}
	if shed != lane {
		t.Fatalf("shed %d of %d pushes with the loop parked, want %d", shed, 2*lane, lane)
	}
	close(gate)
	close(mb.wake)
	<-done
	if ran != admitted+lane {
		t.Fatalf("%d closures ran, want %d", ran, admitted+lane)
	}
}
