// Package churn generates seeded, Poisson-scheduled membership churn
// plans: streams of join/leave/crash/restart events with exponential
// inter-arrival times. A Plan is declarative (like a fault.Spec) and
// substrate-agnostic — the same schedule
// drives the discrete-event simulator (internal/netsim) in virtual time
// and the live runtime (internal/live) in wall-clock time, so churn
// experiments are reproducible across both. A Runner executes the events:
// it holds the whole churn policy, and each substrate only supplies the
// clock that calls Runner.Step.
package churn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Kind enumerates churn event types.
type Kind uint8

const (
	// Join adds a brand-new node to the group.
	Join Kind = iota + 1
	// Leave makes a random node depart gracefully (obituary spreads).
	Leave
	// Crash kills a random node without warning.
	Crash
	// Restart revives a previously crashed or departed node under a
	// bumped incarnation.
	Restart
)

func (k Kind) String() string {
	switch k {
	case Join:
		return "join"
	case Leave:
		return "leave"
	case Crash:
		return "crash"
	case Restart:
		return "restart"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one scheduled churn action. The target node is chosen by the
// executor at fire time (only it knows which nodes are then eligible).
type Event struct {
	At   time.Duration
	Kind Kind
}

// Plan declares a churn workload: independent Poisson processes per event
// kind, all derived deterministically from Seed.
type Plan struct {
	// Seed makes the schedule (and the executors' target choices)
	// reproducible.
	Seed int64
	// Duration is the horizon over which events are generated.
	Duration time.Duration
	// Rates are expected events per minute for each kind; zero disables
	// the kind.
	JoinPerMin    float64
	LeavePerMin   float64
	CrashPerMin   float64
	RestartPerMin float64
}

// EventsPerMinute returns the plan's total expected event rate.
func (p Plan) EventsPerMinute() float64 {
	return p.JoinPerMin + p.LeavePerMin + p.CrashPerMin + p.RestartPerMin
}

// Schedule expands the plan into a deterministic, time-sorted event list.
// Each kind is an independent Poisson process (exponential inter-arrival
// times) with its own seed-derived stream, so changing one rate does not
// reshuffle the other kinds' arrival times.
func (p Plan) Schedule() []Event {
	var events []Event
	kinds := []struct {
		kind Kind
		rate float64
	}{
		{Join, p.JoinPerMin},
		{Leave, p.LeavePerMin},
		{Crash, p.CrashPerMin},
		{Restart, p.RestartPerMin},
	}
	for _, k := range kinds {
		if k.rate <= 0 || p.Duration <= 0 {
			continue
		}
		rng := rand.New(rand.NewSource(p.Seed ^ int64(k.kind)*0x5851f42d4c957f2d))
		mean := time.Duration(float64(time.Minute) / k.rate)
		for t := expDelay(rng, mean); t < p.Duration; t += expDelay(rng, mean) {
			events = append(events, Event{At: t, Kind: k.kind})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Kind < events[j].Kind
	})
	return events
}

// expDelay draws an exponentially distributed delay with the given mean.
func expDelay(rng *rand.Rand, mean time.Duration) time.Duration {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	d := time.Duration(-math.Log(u) * float64(mean))
	if d <= 0 {
		d = 1
	}
	return d
}
