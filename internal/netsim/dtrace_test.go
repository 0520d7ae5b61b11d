package netsim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"gocast/internal/core"
	"gocast/internal/dtrace"
)

// runTracedLossy boots a traced cluster, injects messages under 10% loss,
// and returns the stitched traces plus the raw span snapshot.
func runTracedLossy(t testing.TB, seed int64) ([]*dtrace.MessageTrace, []dtrace.Span) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.TraceSampleEvery = 1
	spans := dtrace.NewBuffer(64 * 8 * 16)
	c := New(Options{Nodes: 64, Seed: seed, Config: cfg, Spans: spans})
	c.BootstrapMembership(cfg.MemberViewSize / 2)
	c.WireRandom(cfg.TargetDegree() / 2)
	c.Start(0)
	c.Run(90 * time.Second)

	c.SetFaults(&FaultSpec{Seed: seed + 1, Rules: []LinkFault{{Loss: 0.10}}})
	c.InjectStream(8, 100, nil)
	c.Run(30 * time.Second)

	got := c.Spans()
	if d := spans.Dropped(); d != 0 {
		t.Fatalf("span buffer evicted %d spans; size the buffer for the run", d)
	}
	return dtrace.Stitch(got), got
}

// TestTracingDistinguishesTreeFromPullRecovery is the tracing acceptance
// criterion: under 10% message loss with every message sampled, the
// stitched traces attribute each delivery to its path — most rode the
// tree, and the losses were recovered by gossip pull — and the rendered
// tree shows both.
func TestTracingDistinguishesTreeFromPullRecovery(t *testing.T) {
	traces, _ := runTracedLossy(t, 21)
	if len(traces) != 8 {
		t.Fatalf("stitched %d messages, want 8", len(traces))
	}
	var totTree, totPull int
	for _, tr := range traces {
		if tr.Root == nil {
			t.Fatalf("msg %d/%d: no inject span stitched as root", tr.Src, tr.Seq)
		}
		if len(tr.Orphans) != 0 {
			t.Fatalf("msg %d/%d: %d orphan deliveries with a complete shared buffer", tr.Src, tr.Seq, len(tr.Orphans))
		}
		if len(tr.Deliveries) != 64 {
			t.Fatalf("msg %d/%d: %d deliveries traced, want all 64", tr.Src, tr.Seq, len(tr.Deliveries))
		}
		tree, pull, _, _ := tr.Counts()
		totTree += tree
		totPull += pull
		for _, d := range tr.Deliveries {
			if d.Via == "pull" && d.RTT <= 0 {
				t.Errorf("msg %d/%d node %d: pull delivery without request-to-reply RTT", tr.Src, tr.Seq, d.Node)
			}
			if d.Via != "inject" && d.Hops <= 0 {
				t.Errorf("msg %d/%d node %d: %s delivery with hop count %d", tr.Src, tr.Seq, d.Node, d.Via, d.Hops)
			}
		}
	}
	if totTree == 0 || totPull == 0 {
		t.Fatalf("deliveries: tree=%d pull=%d; 10%% loss must leave both tree pushes and pull recoveries", totTree, totPull)
	}

	// The rendered tree names both path classes with their attribution.
	out := traces[0].Render()
	if !strings.Contains(out, "inject") || !strings.Contains(out, "tree") {
		t.Fatalf("render lacks inject/tree lines:\n%s", out)
	}
	rendered := ""
	for _, tr := range traces {
		rendered += tr.Render()
	}
	if !strings.Contains(rendered, " pull ") || !strings.Contains(rendered, "rtt=") {
		t.Fatalf("no rendered pull recovery with rtt attribution across 8 messages:\n%s", rendered)
	}
}

// TestTracingDeterministic pins that the whole tracing pipeline — span
// emission on the virtual clock, stitching, rendering, Chrome export —
// is a pure function of the seed.
func TestTracingDeterministic(t *testing.T) {
	traces1, spans1 := runTracedLossy(t, 33)
	traces2, spans2 := runTracedLossy(t, 33)

	j1, err := json.Marshal(traces1)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(traces2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("stitched traces differ across identical runs:\n%s\n--\n%s", j1, j2)
	}

	var c1, c2 bytes.Buffer
	if err := dtrace.WriteChromeTrace(&c1, traces1, spans1); err != nil {
		t.Fatal(err)
	}
	_ = dtrace.WriteChromeTrace(&c2, traces2, spans2)
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Fatalf("chrome trace export differs across identical runs")
	}

	r1, r2 := "", ""
	for i := range traces1 {
		r1 += traces1[i].Render()
		r2 += traces2[i].Render()
	}
	if r1 != r2 {
		t.Fatalf("rendered trees differ across identical runs:\n%s\n--\n%s", r1, r2)
	}
}

// TestTracingOffLeavesNoSpans pins the sampling contract: with
// TraceSampleEvery unset nothing reaches the span buffer even when an
// observer is installed.
func TestTracingOffLeavesNoSpans(t *testing.T) {
	cfg := core.DefaultConfig()
	spans := dtrace.NewBuffer(1024)
	c := New(Options{Nodes: 16, Seed: 5, Config: cfg, Spans: spans})
	c.BootstrapMembership(cfg.MemberViewSize / 2)
	c.WireRandom(cfg.TargetDegree() / 2)
	c.Start(0)
	c.Run(60 * time.Second)
	c.InjectStream(4, 100, nil)
	c.Run(20 * time.Second)
	if got := spans.Len(); got != 0 {
		t.Fatalf("sampling off but %d spans recorded", got)
	}
}

// TestTracingCoopcastShowsAdvertAndPull pins that the coopcast repair loop
// leaves waypoints: a node finishes a bulk message through adverts and
// symbol pulls, and the stitched fec delivery says how long it waited for a
// holder and how many pulls it sent.
func TestTracingCoopcastShowsAdvertAndPull(t *testing.T) {
	const n = 24
	cfg := coopcastTestConfig()
	cfg.TraceSampleEvery = 1
	spans := dtrace.NewBuffer(1 << 14)
	c := New(Options{Nodes: n, Seed: 13, Config: cfg, Spans: spans})
	c.BootstrapMembership(cfg.MemberViewSize / 2)
	c.WireRandom(cfg.TargetDegree() / 2)
	c.Start(0)
	c.Run(60 * time.Second)
	c.Inject(0, make([]byte, 64<<10))
	c.Run(30 * time.Second)
	if d := spans.Dropped(); d != 0 {
		t.Fatalf("span buffer evicted %d spans", d)
	}
	kinds := map[dtrace.Kind]int{}
	for _, s := range c.Spans() {
		kinds[s.Kind]++
	}
	if kinds[dtrace.KindAdvert] == 0 || kinds[dtrace.KindPull] == 0 {
		t.Fatalf("coopcast left %d advert and %d pull spans, want both", kinds[dtrace.KindAdvert], kinds[dtrace.KindPull])
	}
	traces := dtrace.Stitch(c.Spans())
	if len(traces) != 1 {
		t.Fatalf("stitched %d messages, want 1", len(traces))
	}
	pulled := 0
	for _, d := range traces[0].Deliveries {
		if d.Via == "fec" && d.Attempts > 0 {
			pulled++
			if d.Wait < 0 || d.Wait > d.Assembly {
				t.Errorf("node %d: wait %v outside its assembly time %v", d.Node, d.Wait, d.Assembly)
			}
		}
	}
	if pulled == 0 || !strings.Contains(traces[0].Render(), " pulls=") {
		t.Fatalf("no fec delivery attributes its symbol pulls:\n%s", traces[0].Render())
	}
}
