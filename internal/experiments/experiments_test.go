package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinyScale keeps the shape of the experiments while staying test-fast.
func tinyScale() Scale {
	return Scale{
		Nodes:    96,
		Warmup:   60 * time.Second,
		Messages: 20,
		Rate:     100,
		Drain:    30 * time.Second,
		Seed:     1,
	}
}

func parseSeconds(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "s"), 64)
	if err != nil {
		t.Fatalf("cannot parse duration cell %q: %v", cell, err)
	}
	return v
}

func parseFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cannot parse cell %q: %v", cell, err)
	}
	return v
}

func TestFigure1ClosedForm(t *testing.T) {
	rep := Figure1(1024, 20)
	if len(rep.Rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(rep.Rows))
	}
	// Monotone increasing in fanout; 1000-message curve below the
	// 1-message curve; fanout 15 still below 0.5 for 1000 messages.
	var prev float64 = -1
	for _, row := range rep.Rows {
		p1 := parseFloat(t, row[1])
		p1000 := parseFloat(t, row[2])
		if p1 < prev {
			t.Fatalf("P(all hear) not monotone in fanout")
		}
		prev = p1
		if p1000 > p1 {
			t.Fatalf("1000-message reliability above single-message reliability")
		}
		// Paper: "lower than 0.5 when the fanout is smaller than 15".
		if row[0] == "14" && p1000 >= 0.5 {
			t.Errorf("fanout 14 should give < 0.5 for 1000 msgs, got %v", p1000)
		}
		if row[0] == "15" && p1000 < 0.5 {
			t.Errorf("fanout 15 should cross 0.5 for 1000 msgs, got %v", p1000)
		}
	}
}

func TestFigure3ShapeNoFailures(t *testing.T) {
	rep := Figure3(tinyScale(), 0)
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 protocols", len(rep.Rows))
	}
	byName := map[string][]string{}
	for _, row := range rep.Rows {
		byName[row[0]] = row
	}
	gocast := parseSeconds(t, byName["gocast"][4]) // p99
	gossip := parseSeconds(t, byName["gossip"][4])
	prox := parseSeconds(t, byName["proximity-overlay"][4])
	if gocast >= gossip {
		t.Errorf("GoCast p99 %.3fs should beat gossip %.3fs", gocast, gossip)
	}
	if gocast >= prox {
		t.Errorf("GoCast p99 %.3fs should beat proximity overlay %.3fs", gocast, prox)
	}
	// Overlay-based protocols deliver everything without failures.
	for _, p := range []string{"gocast", "proximity-overlay", "random-overlay"} {
		if ratio := parseFloat(t, byName[p][6]); ratio < 1 {
			t.Errorf("%s delivery ratio %.4f, want 1", p, ratio)
		}
	}
}

func TestFigure3ShapeWithFailures(t *testing.T) {
	rep := Figure3(tinyScale(), 0.20)
	byName := map[string][]string{}
	for _, row := range rep.Rows {
		byName[row[0]] = row
	}
	// With 20% failures and no repair, the overlay protocols still
	// deliver every message to every live node.
	for _, p := range []string{"gocast", "proximity-overlay", "random-overlay"} {
		if ratio := parseFloat(t, byName[p][6]); ratio < 1 {
			t.Errorf("%s delivery ratio %.4f under failures, want 1", p, ratio)
		}
	}
}

func TestFigure5aConvergence(t *testing.T) {
	rep := Figure5a(tinyScale())
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 snapshots", len(rep.Rows))
	}
	first := parseFloat(t, rep.Rows[0][1])
	last := parseFloat(t, rep.Rows[2][1])
	if last <= first {
		t.Errorf("degree-6 fraction should grow: %v%% -> %v%%", first, last)
	}
	if last < 40 {
		t.Errorf("converged degree-6 fraction = %v%%, want >= 40%%", last)
	}
}

func TestFigure5bLatencyDrops(t *testing.T) {
	rep := Figure5b(tinyScale(), 60*time.Second, 20*time.Second)
	first := parseSeconds(t, rep.Rows[0][1])
	last := parseSeconds(t, rep.Rows[len(rep.Rows)-1][1])
	if last >= first {
		t.Errorf("overlay latency should fall during adaptation: %.3fs -> %.3fs", first, last)
	}
	lastTree := parseSeconds(t, rep.Rows[len(rep.Rows)-1][2])
	if lastTree > last {
		t.Errorf("tree links (%.3fs) should be no worse than overlay average (%.3fs)", lastTree, last)
	}
}

func TestFigure6RandomLinksMatter(t *testing.T) {
	sc := tinyScale()
	rep := Figure6(sc, []float64{0.25}, []int{0, 1})
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rep.Rows))
	}
	q0 := parseFloat(t, rep.Rows[0][1])
	q1 := parseFloat(t, rep.Rows[0][2])
	if q1 < 0.99 {
		t.Errorf("C_rand=1 at 25%% failures: q=%.3f, want ~1 (paper)", q1)
	}
	if q0 >= q1 {
		t.Errorf("C_rand=0 (q=%.3f) should be worse than C_rand=1 (q=%.3f)", q0, q1)
	}
}

func TestHearCountsCensus(t *testing.T) {
	sc := tinyScale()
	sc.Nodes = 256
	rep := HearCounts(sc, 5)
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	mean := parseFloat(t, rep.Rows[1][1])
	if mean < 3.5 || mean > 6.5 {
		t.Errorf("mean hears = %.2f, want near fanout 5", mean)
	}
	max := parseFloat(t, rep.Rows[2][1])
	if max < 8 {
		t.Errorf("max hears = %.0f, want heavy tail", max)
	}
}

func TestRedundancyPullDelayHelps(t *testing.T) {
	rep := Redundancy(tinyScale(), []time.Duration{0, 300 * time.Millisecond})
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	dup0 := parseFloat(t, rep.Rows[0][2])
	dupF := parseFloat(t, rep.Rows[1][2])
	if dupF > dup0 {
		t.Errorf("pull delay should reduce redundancy: %.5f -> %.5f", dup0, dupF)
	}
}

func TestLinkChangesDecay(t *testing.T) {
	rep := LinkChanges(tinyScale(), 60*time.Second, 10*time.Second)
	if len(rep.Rows) < 3 {
		t.Fatalf("rows = %d, want >= 3 buckets", len(rep.Rows))
	}
	first := parseFloat(t, rep.Rows[0][1])
	last := parseFloat(t, rep.Rows[len(rep.Rows)-1][1])
	if last >= first {
		t.Errorf("link change rate should decay: %.1f/s -> %.1f/s", first, last)
	}
}

func TestFanoutSweepDiminishingReturns(t *testing.T) {
	sc := tinyScale()
	sc.Nodes = 256
	rep := FanoutSweep(sc, []int{5, 9, 15})
	m5 := parseSeconds(t, rep.Rows[0][1])
	m15 := parseSeconds(t, rep.Rows[2][1])
	// Tripling the fanout must not triple the speed; the improvement is
	// marginal (paper: ~5% from 5 to 9, none beyond).
	if m15 < m5*0.5 {
		t.Errorf("fanout 15 mean %.3fs vs fanout 5 %.3fs: improvement too large for the claim", m15, m5)
	}
}

func TestLinkStressFavorsGoCast(t *testing.T) {
	sc := tinyScale()
	sc.Nodes = 128
	sc.Messages = 50
	rep := LinkStress(sc, 64, 1000)
	gc := parseFloat(t, rep.Rows[0][1])
	pg := parseFloat(t, rep.Rows[1][1])
	if gc <= 0 || pg <= 0 {
		t.Fatalf("stress accounting produced zeros: gocast=%v gossip=%v", gc, pg)
	}
	if pg <= gc {
		t.Errorf("gossip bottleneck bytes (%v) should exceed gocast (%v)", pg, gc)
	}
}

func TestFigure3CurvesShape(t *testing.T) {
	sc := tinyScale()
	rep := Figure3Curves(sc, 0, 20, 3*time.Second)
	if len(rep.Rows) != 20 || len(rep.Header) != 6 {
		t.Fatalf("curve table %dx%d, want 20x6", len(rep.Rows), len(rep.Header))
	}
	// Each protocol column is monotone nondecreasing, and GoCast reaches a
	// high fraction by the last row.
	for col := 1; col < 6; col++ {
		prev := -1.0
		for _, row := range rep.Rows {
			v := parseFloat(t, row[col])
			if v < prev {
				t.Fatalf("column %s not monotone", rep.Header[col])
			}
			prev = v
		}
	}
	if last := parseFloat(t, rep.Rows[19][1]); last < 0.99 {
		t.Errorf("gocast fraction at 3s = %v, want ~1", last)
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{
		Name:   "test",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"note"},
	}
	s := rep.String()
	for _, want := range []string{"== test ==", "a", "1", "# note"} {
		if !strings.Contains(s, want) {
			t.Errorf("report rendering missing %q:\n%s", want, s)
		}
	}
}

// TestScaleSweepBalanceNotes checks that a sharded sweep point notes its
// window count, mean window width and shard balance, that a sequential
// one notes none, and that the deterministic columns agree.
func TestScaleSweepBalanceNotes(t *testing.T) {
	sc := tinyScale()
	sc.Warmup, sc.Messages, sc.Drain = 20*time.Second, 5, 5*time.Second
	seq := ScaleSweep(sc, []int{96})
	sc.Shards = 2
	sharded := ScaleSweep(sc, []int{96})
	if got := sharded.Rows[0][1]; got != "2" {
		t.Fatalf("sharded point ran on %s shards, want 2", got)
	}
	for _, col := range []int{0, 3, 5, 6, 7, 8} {
		if seq.Rows[0][col] != sharded.Rows[0][col] {
			t.Errorf("column %s: sequential %s, sharded %s",
				seq.Header[col], seq.Rows[0][col], sharded.Rows[0][col])
		}
	}
	if len(sharded.Notes) != len(seq.Notes)+1 {
		t.Fatalf("sharded notes %q, want one more than sequential %q", sharded.Notes, seq.Notes)
	}
	note := sharded.Notes[len(sharded.Notes)-1]
	if !strings.HasPrefix(note, "96 nodes: ") || !strings.Contains(note, " windows, mean width ") ||
		!strings.Contains(note, "shard events max/mean ") {
		t.Errorf("balance note %q", note)
	}
}
