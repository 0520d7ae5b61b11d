package core

import (
	"math/rand"
	"time"

	"gocast/internal/sim"
)

// fixture wires a handful of core nodes to a private event engine with a
// configurable latency function, for white-box protocol tests.
type fixture struct {
	eng   *sim.Engine
	nodes map[NodeID]*Node
	rng   *rand.Rand
	// lat returns one-way latency between two nodes.
	lat func(a, b NodeID) time.Duration
	// down marks unreachable nodes.
	down map[NodeID]bool
	// sent logs every transmission for assertions.
	sent []sentMsg
	// drop, when set, loses the transmissions it returns true for (they
	// are still logged in sent).
	drop func(from, to NodeID, m Message) bool
}

type sentMsg struct {
	from, to NodeID
	msg      Message
}

func newFixture(seed int64) *fixture {
	return &fixture{
		eng:   sim.NewEngine(seed),
		nodes: make(map[NodeID]*Node),
		rng:   rand.New(rand.NewSource(seed)),
		lat:   func(a, b NodeID) time.Duration { return 10 * time.Millisecond },
		down:  make(map[NodeID]bool),
	}
}

func (f *fixture) addNode(id NodeID, cfg Config) *Node {
	e := &fixtureEnv{f: f, id: id, rng: rand.New(rand.NewSource(f.rng.Int63()))}
	n := New(id, cfg, e)
	f.nodes[id] = n
	return n
}

// link wires two nodes as overlay neighbors directly.
func (f *fixture) link(a, b NodeID, kind LinkKind) {
	rtt := 2 * f.lat(a, b)
	f.nodes[a].AddNeighborDirect(Entry{ID: b}, kind, rtt)
	f.nodes[b].AddNeighborDirect(Entry{ID: a}, kind, rtt)
}

func (f *fixture) run(d time.Duration) { f.eng.Run(f.eng.Now() + d) }

// count returns how many logged messages from->to satisfy pred.
func (f *fixture) count(from, to NodeID, pred func(Message) bool) int {
	c := 0
	for _, s := range f.sent {
		if s.from == from && s.to == to && pred(s.msg) {
			c++
		}
	}
	return c
}

type fixtureEnv struct {
	f   *fixture
	id  NodeID
	rng *rand.Rand
}

var _ Env = (*fixtureEnv)(nil)

func (e *fixtureEnv) Now() time.Duration { return e.f.eng.Now() }

func (e *fixtureEnv) Rand(n int) int {
	if n <= 0 {
		return 0
	}
	return e.rng.Intn(n)
}

func (e *fixtureEnv) Learn(Entry) {}

func (e *fixtureEnv) After(d time.Duration, fn func()) Timer {
	// *sim.Engine satisfies TimerCanceller directly.
	return MakeTimer(e.f.eng, uint64(e.f.eng.Schedule(e.f.eng.Now()+d, fn)))
}

func (e *fixtureEnv) Send(to NodeID, m Message) { e.deliver(to, m) }

func (e *fixtureEnv) SendDatagram(to NodeID, m Message) { e.deliver(to, m) }

func (e *fixtureEnv) deliver(to NodeID, m Message) {
	e.f.sent = append(e.f.sent, sentMsg{from: e.id, to: to, msg: m})
	if e.f.down[to] || e.f.down[e.id] || (e.f.drop != nil && e.f.drop(e.id, to, m)) {
		return
	}
	target, ok := e.f.nodes[to]
	if !ok {
		return
	}
	from := e.id
	e.f.eng.After(e.f.lat(from, to), func() {
		if !e.f.down[to] {
			target.HandleMessage(from, m)
		}
	})
}
