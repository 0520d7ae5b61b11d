// Package fault is the link-fault model both substrates share. A Spec
// declares the currently active network faults — partitions,
// probabilistic loss, extra delay and jitter, and bandwidth-capped links
// with FIFO queueing — over node indexes, and State.Judge decides the
// fate of one transmission under it. The model is a point-in-time state:
// callers phase faults in and out by installing a new spec (netsim on its
// virtual clock, live.FaultController on the wall clock), so every
// decision for a given spec, seed and send order is reproducible.
//
// Blocked and dropped transmissions are silent blackholes: a partitioned
// TCP peer looks stalled, not dead, and detection is the protocol's job
// (keepalive timeouts), recovery gossip's (pulls and sync after heal).
package fault

import (
	"math/rand"
	"time"
)

// Range selects the node-index interval [Lo, Hi). The zero value matches
// every node.
type Range struct {
	Lo, Hi int
}

// matches reports whether i falls in the range (zero value = all).
func (r Range) matches(i int) bool {
	if r.Lo == 0 && r.Hi == 0 {
		return true
	}
	return i >= r.Lo && i < r.Hi
}

// Link shapes traffic from From-nodes to To-nodes (directed; write a pair
// of rules for a symmetric fault). Zero-valued ranges are wildcards.
type Link struct {
	From, To Range
	// Loss is the probability a matching transmission is silently lost
	// (reliable and datagram sends alike).
	Loss float64
	// Extra is a fixed additional one-way delay; Jitter adds a further
	// uniform [0, Jitter) on top.
	Extra  time.Duration
	Jitter time.Duration
	// BytesPerSec, when positive, models the directed (from, to) link as a
	// serial line: each message occupies it for size/rate, queueing FIFO
	// behind earlier transmissions. Delivery happens at depart +
	// propagation, where depart = max(now, linkFree) + size/rate.
	BytesPerSec int64
}

// Spec is the complete active fault state. Installing a new spec replaces
// the previous one (and resets per-link queueing clocks).
type Spec struct {
	// Seed drives loss and jitter randomness (0 means 1). The scenario
	// engine derives it from the scenario's master seed so a run replays
	// exactly.
	Seed int64
	// Partition lists node-index cells; traffic between nodes in different
	// cells is blocked both ways. Nodes in no cell are unaffected.
	Partition [][]int
	// Rules are evaluated in order and independently; every matching rule
	// applies.
	Rules []Link
}

// Stats counts verdicts since the State was made (cumulative across Set
// calls).
type Stats struct {
	Blocked   int64 // transmissions blocked by a partition
	Dropped   int64 // transmissions lost to probabilistic loss
	Delayed   int64 // transmissions delivered late (extra delay/jitter)
	Throttled int64 // transmissions queued behind a bandwidth cap
}

// Counters names each statistic by its exported counter name.
func (s Stats) Counters() map[string]int64 {
	return map[string]int64{
		"fault_blocked":   s.Blocked,
		"fault_dropped":   s.Dropped,
		"fault_delayed":   s.Delayed,
		"fault_throttled": s.Throttled,
	}
}

// State is the installed form of a Spec plus its cumulative Stats. The
// zero value judges every transmission unharmed. It is not safe for
// concurrent use.
type State struct {
	rng   *rand.Rand // nil while no fault is installed
	cell  map[int]int
	rules []Link
	// linkFree tracks each capped directed link's transmission clock: the
	// time at which the link next frees up, keyed by rule index and
	// endpoint pair.
	linkFree map[linkKey]time.Duration
	stats    Stats
}

type linkKey struct {
	rule     int
	from, to int
}

// Set installs spec as the active fault state; nil or a spec with no
// partition and no rules clears every fault. Queueing clocks start fresh:
// a newly capped link is idle.
func (s *State) Set(spec *Spec) {
	*s = State{stats: s.stats}
	if spec == nil || (len(spec.Partition) == 0 && len(spec.Rules) == 0) {
		return
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	s.rng = rand.New(rand.NewSource(seed))
	s.rules = append([]Link(nil), spec.Rules...)
	if len(spec.Partition) > 0 {
		s.cell = make(map[int]int)
		for ci, cell := range spec.Partition {
			for _, i := range cell {
				s.cell[i] = ci
			}
		}
	}
	for _, r := range s.rules {
		if r.BytesPerSec > 0 {
			s.linkFree = make(map[linkKey]time.Duration)
			break
		}
	}
}

// Active reports whether a fault is installed.
func (s *State) Active() bool { return s.rng != nil }

// Stats returns the cumulative verdict counts.
func (s *State) Stats() Stats { return s.stats }

// Judge decides one transmission of size bytes from node from to node to
// at time now, and returns its extra delivery delay. ok=false means the
// transmission is lost (partition block or probabilistic loss). Matching
// rules draw from the state's one seeded stream in rule order: a loss
// draw, then a jitter draw.
func (s *State) Judge(from, to, size int, now time.Duration) (extra time.Duration, ok bool) {
	if s.rng == nil {
		return 0, true
	}
	if s.cell != nil {
		cf, okF := s.cell[from]
		ct, okT := s.cell[to]
		if okF && okT && cf != ct {
			s.stats.Blocked++
			return 0, false
		}
	}
	throttled := false
	for ri := range s.rules {
		r := &s.rules[ri]
		if !r.From.matches(from) || !r.To.matches(to) {
			continue
		}
		if r.Loss > 0 && s.rng.Float64() < r.Loss {
			s.stats.Dropped++
			return 0, false
		}
		extra += r.Extra
		if r.Jitter > 0 {
			extra += time.Duration(s.rng.Int63n(int64(r.Jitter)))
		}
		if r.BytesPerSec > 0 && size > 0 {
			// FIFO serialization: the message departs once the link frees
			// and its own bytes have been clocked out.
			key := linkKey{rule: ri, from: from, to: to}
			free := s.linkFree[key]
			if free < now {
				free = now
			}
			depart := free + time.Duration(int64(size)*int64(time.Second)/r.BytesPerSec)
			s.linkFree[key] = depart
			if q := depart - now; q > 0 {
				extra += q
				throttled = true
			}
		}
	}
	if throttled {
		s.stats.Throttled++
	} else if extra > 0 {
		s.stats.Delayed++
	}
	return extra, true
}
