package churn

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// fakeCluster is an in-memory churn.Cluster that logs every operation
// and the slot each leave, crash or restart targeted.
type fakeCluster struct {
	alive   []bool
	ops     []string
	targets []int
}

func newFake(n int) *fakeCluster {
	f := &fakeCluster{alive: make([]bool, n)}
	for i := range f.alive {
		f.alive[i] = true
	}
	return f
}

func (f *fakeCluster) Size() int        { return len(f.alive) }
func (f *fakeCluster) Alive(i int) bool { return f.alive[i] }

func (f *fakeCluster) AliveCount() int {
	n := 0
	for _, a := range f.alive {
		if a {
			n++
		}
	}
	return n
}

func (f *fakeCluster) AddNode(contact int) int {
	f.ops = append(f.ops, fmt.Sprintf("join@%d", contact))
	f.alive = append(f.alive, true)
	return len(f.alive) - 1
}

func (f *fakeCluster) Leave(i int) {
	f.ops = append(f.ops, fmt.Sprintf("leave %d", i))
	f.targets = append(f.targets, i)
	f.alive[i] = false
}

func (f *fakeCluster) Crash(i int) {
	f.ops = append(f.ops, fmt.Sprintf("crash %d", i))
	f.targets = append(f.targets, i)
	f.alive[i] = false
}

func (f *fakeCluster) Restart(i, contact int) bool {
	f.ops = append(f.ops, fmt.Sprintf("restart %d@%d", i, contact))
	f.targets = append(f.targets, i)
	f.alive[i] = true
	return true
}

func runPlan(f *fakeCluster, opts Options) Stats {
	r := NewRunner(f, opts)
	for _, ev := range opts.Plan.Schedule() {
		r.Step(ev.Kind)
	}
	return r.Stats
}

func TestRunnerNeverTargetsProtected(t *testing.T) {
	const protected = 5
	f := newFake(12)
	plan := Plan{Seed: 3, Duration: 20 * time.Minute, JoinPerMin: 1, LeavePerMin: 2, CrashPerMin: 2, RestartPerMin: 2}
	st := runPlan(f, Options{Plan: plan, Protected: protected})
	if st.Leaves == 0 || st.Crashes == 0 || st.Restarts == 0 {
		t.Fatalf("plan did not exercise leave/crash/restart: %+v", st)
	}
	for _, i := range f.targets {
		if i < protected {
			t.Errorf("protected slot %d targeted", i)
		}
	}
	for i := 0; i < protected; i++ {
		if !f.alive[i] {
			t.Errorf("protected slot %d is down", i)
		}
	}
}

func TestRunnerMinAliveFloorSkips(t *testing.T) {
	f := newFake(6)
	r := NewRunner(f, Options{MinAlive: 4})
	for k := 0; k < 4; k++ {
		r.Step(Crash)
	}
	if f.AliveCount() != 4 {
		t.Fatalf("alive = %d, want the floor 4", f.AliveCount())
	}
	if want := (Stats{Crashes: 2, Skipped: 2}); r.Stats != want {
		t.Fatalf("stats = %+v, want %+v", r.Stats, want)
	}
	// Without a floor the last node is still kept.
	g := newFake(2)
	r = NewRunner(g, Options{})
	r.Step(Leave)
	r.Step(Leave)
	if want := (Stats{Leaves: 1, Skipped: 1}); r.Stats != want || g.AliveCount() != 1 {
		t.Fatalf("stats = %+v alive = %d, want %+v alive 1", r.Stats, g.AliveCount(), want)
	}
}

func TestRunnerMaxNodesCapSkips(t *testing.T) {
	f := newFake(3)
	r := NewRunner(f, Options{MaxNodes: 5})
	for k := 0; k < 4; k++ {
		r.Step(Join)
	}
	if f.Size() != 5 {
		t.Fatalf("size = %d, want the cap 5", f.Size())
	}
	if want := (Stats{Joins: 2, Skipped: 2}); r.Stats != want {
		t.Fatalf("stats = %+v, want %+v", r.Stats, want)
	}
}

func TestRunnerRestartWithNothingDeadSkips(t *testing.T) {
	f := newFake(4)
	r := NewRunner(f, Options{})
	r.Step(Restart)
	if want := (Stats{Skipped: 1}); r.Stats != want || len(f.ops) != 0 {
		t.Fatalf("stats = %+v ops = %v, want %+v and no ops", r.Stats, f.ops, want)
	}
	// A dead slot below Protected is not eligible either.
	f.alive[1] = false
	r = NewRunner(f, Options{Protected: 2})
	r.Step(Restart)
	if want := (Stats{Skipped: 1}); r.Stats != want || len(f.ops) != 0 {
		t.Fatalf("stats = %+v ops = %v, want %+v and no ops", r.Stats, f.ops, want)
	}
}

// TestRunnerFixedSequence pins the exact targets and contacts of one plan:
// join draws a live contact after the cap check; leave and crash draw an
// unprotected live target before the floor check; restart draws an
// unprotected dead target, then a live contact. The simulator's pinned
// churn results depend on this order.
func TestRunnerFixedSequence(t *testing.T) {
	f := newFake(8)
	st := runPlan(f, Options{
		Plan:      Plan{Seed: 11, Duration: 8 * time.Minute, JoinPerMin: 0.5, LeavePerMin: 1, CrashPerMin: 1, RestartPerMin: 1},
		Protected: 2,
		MinAlive:  5,
		MaxNodes:  9,
	})
	want := []string{
		"crash 7", "leave 5", "restart 7@6", "restart 5@1", "join@1",
		"leave 8", "crash 5", "restart 5@0", "crash 2", "leave 7",
		"leave 5", "restart 2@1", "leave 2", "restart 5@0", "leave 6",
	}
	if !reflect.DeepEqual(f.ops, want) {
		t.Errorf("ops = %#v\nwant  %#v", f.ops, want)
	}
	if wantSt := (Stats{Joins: 1, Leaves: 6, Crashes: 3, Restarts: 5, Skipped: 12}); st != wantSt {
		t.Errorf("stats = %+v, want %+v", st, wantSt)
	}
}
