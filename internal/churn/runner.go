package churn

import "math/rand"

// Options binds a plan to a cluster.
type Options struct {
	// Plan is the seeded Poisson event schedule.
	Plan Plan
	// Protected marks the first Protected slots churn-ineligible: they are
	// never chosen for leave, crash, or restart, so delivery atomicity can
	// be asserted over a stable core while the rest of the system churns.
	Protected int
	// MinAlive skips leave/crash events that would drop the live
	// population below this floor (0 = no floor beyond one node).
	MinAlive int
	// MaxNodes skips join events once the cluster holds this many slots
	// (0 = unbounded growth).
	MaxNodes int
}

// Stats counts what a Runner actually did. Events are skipped when no
// eligible target exists (e.g. a restart with nothing dead) or a floor or
// cap applies.
type Stats struct {
	Joins, Leaves, Crashes, Restarts, Skipped int
}

// Events returns the number of executed (non-skipped) events.
func (s Stats) Events() int { return s.Joins + s.Leaves + s.Crashes + s.Restarts }

// Cluster is the membership surface a Runner drives. Slots are stable
// indexes; a dead slot keeps its index and can be restarted.
type Cluster interface {
	// Size returns the number of slots, dead ones included.
	Size() int
	Alive(i int) bool
	AliveCount() int
	// AddNode grows the cluster by one slot joining through contact and
	// returns its index, or -1 when the join could not happen.
	AddNode(contact int) int
	Leave(i int)
	Crash(i int)
	// Restart revives dead slot i under a bumped incarnation, rejoining
	// through contact; it reports whether the restart happened.
	Restart(i, contact int) bool
}

// Runner executes churn events against a Cluster. It owns the policy —
// which slots are eligible, the Protected/MinAlive/MaxNodes rules, skip
// accounting, and the seeded target and contact draws — so every
// substrate only decides when Step runs. A (plan, cluster) pair whose
// eligibility evolves the same way replays the same choices.
type Runner struct {
	// Stats fills in as Step runs.
	Stats Stats

	c    Cluster
	opts Options
	rng  *rand.Rand
}

// NewRunner binds opts to c. Target choices come from a stream derived
// from the plan seed.
func NewRunner(c Cluster, opts Options) *Runner {
	if opts.MinAlive < 1 {
		opts.MinAlive = 1
	}
	return &Runner{c: c, opts: opts, rng: rand.New(rand.NewSource(opts.Plan.Seed ^ 0x00c0ffee))}
}

// Step runs one event of kind k, choosing its target among the slots
// eligible now.
func (r *Runner) Step(k Kind) {
	st := &r.Stats
	switch k {
	case Join:
		if r.opts.MaxNodes > 0 && r.c.Size() >= r.opts.MaxNodes {
			st.Skipped++
			return
		}
		contact := r.pick(true, 0)
		if contact < 0 || r.c.AddNode(contact) < 0 {
			st.Skipped++
			return
		}
		st.Joins++
	case Leave, Crash:
		i := r.pick(true, r.opts.Protected)
		if i < 0 || r.c.AliveCount() <= r.opts.MinAlive {
			st.Skipped++
			return
		}
		if k == Leave {
			r.c.Leave(i)
			st.Leaves++
		} else {
			r.c.Crash(i)
			st.Crashes++
		}
	case Restart:
		i := r.pick(false, r.opts.Protected)
		contact := r.pick(true, 0)
		if i < 0 || contact < 0 || !r.c.Restart(i, contact) {
			st.Skipped++
			return
		}
		st.Restarts++
	}
}

// pick returns a uniformly random slot with index >= minIdx whose
// liveness equals alive, or -1 when none qualifies (drawing nothing).
func (r *Runner) pick(alive bool, minIdx int) int {
	var cand []int
	for i, n := minIdx, r.c.Size(); i < n; i++ {
		if r.c.Alive(i) == alive {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return -1
	}
	return cand[r.rng.Intn(len(cand))]
}
