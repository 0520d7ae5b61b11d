package scenario

import (
	"time"

	"gocast/internal/churn"
	"gocast/internal/fault"
)

// restartContact is the slot a scenario restart of slot i rejoins
// through, on either substrate: the root slot, or slot 1 when the root
// slot itself restarts.
func restartContact(i int) int {
	if i == 0 {
		return 1
	}
	return 0
}

// substrate is the execution backend a scenario runs on. Durations passed
// in are scenario time; the live substrate scales them to wall time
// internally. Node indexes are stable slot numbers on both substrates
// (core.NodeID == index).
type substrate interface {
	name() string
	// now returns elapsed scenario time since the run began.
	now() time.Duration
	// run advances the scenario clock by d (virtual advance or scaled
	// sleep).
	run(d time.Duration)
	// after schedules fn at now+d on the scenario clock. Callbacks run on
	// the substrate's event context; keep them short.
	after(d time.Duration, fn func())
	nodeCount() int
	alive(i int) bool
	// publish starts a multicast at node i; false if rejected (dead node
	// or overload backpressure).
	publish(i int, payload []byte) bool
	// setFaults replaces the active fault state (nil or empty = clear).
	setFaults(f *fault.Spec)
	// startChurn launches a churn burst; events execute on the substrate
	// clock and stop at the plan horizon.
	startChurn(opts churn.Options)
	// churnEvents returns cumulative executed churn events.
	churnEvents() int64
	crash(i int)
	restart(i int)
	// treeNode reports node i's tree position: parent and root as node
	// indexes (-1 when unknown/self), and current overlay degree.
	treeNode(i int) (parent, root, degree int)
	// converged returns "" when the overlay is converged — one connected
	// component, one agreed live root, no stale links — or the reason it
	// is not.
	converged() string
	// atomicityViolations counts (message, stable-node) pairs that missed
	// a delivery, judging only messages older than grace.
	atomicityViolations(grace time.Duration) int
	// offenderTrace returns the rendered dissemination trace of one
	// message that violated invariant inv (InvAtomicity or InvRecovery;
	// "" when the substrate records no spans or no offender was traced).
	offenderTrace(inv string, grace time.Duration) string
	// recoveryViolations counts deliveries restarted nodes never caught
	// up on; ok=false means the substrate cannot judge this (live).
	recoveryViolations(grace time.Duration) (n int, ok bool)
	// criticalSheds returns cumulative Critical-class sheds.
	criticalSheds() int64
	// faultCounters snapshots the fault model's cumulative verdict
	// counters (fault.Stats.Counters).
	faultCounters() map[string]int64
	// published returns how many scenario multicasts were accepted.
	published() int64
	close()
}
