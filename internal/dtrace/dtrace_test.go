package dtrace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBufferRingEvictsOldest(t *testing.T) {
	b := NewBuffer(4)
	for i := 0; i < 6; i++ {
		b.Record(Span{Seq: uint32(i)})
	}
	if got := b.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := b.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	snap := b.Snapshot()
	for i, s := range snap {
		if want := uint32(i + 2); s.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (oldest evicted, record order kept)", i, s.Seq, want)
		}
	}
}

func TestAddAndSnapshotOrder(t *testing.T) {
	b := NewBuffer(8)
	for i := 0; i < 5; i++ {
		b.Record(Span{Node: int32(i), From: -1, Kind: KindTreeSend, End: time.Duration(i) * time.Millisecond})
	}
	snap := b.Snapshot()
	if len(snap) != 5 || b.Len() != 5 {
		t.Fatalf("len = %d/%d, want 5", len(snap), b.Len())
	}
	for i, s := range snap {
		if s.Node != int32(i) {
			t.Fatalf("order broken: %v", snap)
		}
	}
	if b.Dropped() != 0 {
		t.Fatalf("dropped = %d", b.Dropped())
	}
}

func TestRingEviction(t *testing.T) {
	b := NewBuffer(4)
	for i := 0; i < 10; i++ {
		b.Record(Span{Node: int32(i), From: -1, Kind: KindTreeSend, End: time.Duration(i) * time.Millisecond})
	}
	snap := b.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("len = %d, want 4", len(snap))
	}
	// Oldest surviving must be record 6.
	if snap[0].Node != 6 || snap[3].Node != 9 {
		t.Fatalf("eviction order wrong: %v", snap)
	}
	if b.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", b.Dropped())
	}
}

func TestZeroCapacityDefaults(t *testing.T) {
	for _, capa := range []int{0, -1} {
		b := NewBuffer(capa)
		for i := 0; i < DefaultBufferCapacity+10; i++ {
			b.Record(Span{Node: int32(i), From: -1, Kind: KindRoot})
		}
		if b.Len() != DefaultBufferCapacity || b.Dropped() != 10 {
			t.Fatalf("NewBuffer(%d): Len = %d, Dropped = %d; want %d and 10", capa, b.Len(), b.Dropped(), DefaultBufferCapacity)
		}
	}
}

func TestBufferDefaultsAndPartialSnapshot(t *testing.T) {
	b := NewBuffer(0)
	if b.Len() != 0 || b.Dropped() != 0 {
		t.Fatalf("fresh buffer not empty")
	}
	b.Record(Span{Seq: 9})
	snap := b.Snapshot()
	if len(snap) != 1 || snap[0].Seq != 9 {
		t.Fatalf("partial snapshot = %+v", snap)
	}
	// The snapshot is a copy, not a view.
	snap[0].Seq = 1
	if b.Snapshot()[0].Seq != 9 {
		t.Fatalf("snapshot aliases the ring")
	}
}

func TestBufferConcurrentRecords(t *testing.T) {
	b := NewBuffer(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Record(Span{Node: int32(g), Seq: uint32(i)})
			}
		}(g)
	}
	wg.Wait()
	if b.Len() != 128 || b.Dropped() != 800-128 {
		t.Fatalf("Len = %d, Dropped = %d; want a full ring and %d evicted", b.Len(), b.Dropped(), 800-128)
	}
}

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := KindInject; k <= KindStoreGC; k++ {
		name := k.String()
		if strings.HasPrefix(name, "Kind(") || seen[name] {
			t.Errorf("kind %d: name %q missing or reused", k, name)
		}
		seen[name] = true
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q, want the fallback", got)
	}
}

// TestSpanStringLines pins the event-ring line format /tracez and the
// /trace command print: time, kind, node, peer and the kind's fields.
func TestSpanStringLines(t *testing.T) {
	for _, tc := range []struct {
		s    Span
		want []string
	}{
		{Span{Src: 3, Seq: 8, Node: 1, From: 3, Kind: KindTreeDeliver, End: time.Second, Age: 40 * time.Millisecond},
			[]string{"1s", "tree-deliver", "node=1 peer=3", "msg=3/8", "age=40ms"}},
		{Span{Src: 1, Seq: 2, Node: 1, From: -1, Kind: KindInject},
			[]string{"inject", "msg=1/2"}},
		{Span{Node: 4, From: 7, Kind: KindParent, Aux: -1, Aux2: 1, Start: time.Second, End: 1300 * time.Millisecond},
			[]string{"parent", "node=4 peer=7", "-1 -> 7", "repair=300ms"}},
		{Span{Node: 4, From: 9, Kind: KindLinkUp, Aux: 2, Aux2: int64(30 * time.Millisecond)},
			[]string{"link-up", "kind=nearby", "rtt=30ms"}},
		{Span{Node: 4, From: -1, Kind: KindStoreGC, Aux: 5, Aux2: 2, Start: 0, End: time.Millisecond},
			[]string{"store-gc", "reclaimed=5 dropped=2 took=1ms"}},
	} {
		line := tc.s.String()
		for _, w := range tc.want {
			if !strings.Contains(line, w) {
				t.Errorf("%q lacks %q", line, w)
			}
		}
		if tc.s.From < 0 && strings.Contains(line, "peer=") {
			t.Errorf("%q names a peer for From = -1", line)
		}
	}
}

// sampleSpans builds a known dissemination: node 0 injects, 1 and 2 get
// tree pushes, 3 hears an advert from 2 and pulls, 4 syncs from 1.
func sampleSpans() []Span {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return []Span{
		{Src: 0, Seq: 7, Node: 0, From: -1, Kind: KindInject, Start: ms(0), End: ms(0)},
		{Src: 0, Seq: 7, Node: 1, From: 0, Kind: KindTreeDeliver, Hops: 1, Start: ms(10), End: ms(10), Age: ms(10)},
		{Src: 0, Seq: 7, Node: 2, From: 0, Kind: KindTreeDeliver, Hops: 1, Start: ms(12), End: ms(12), Age: ms(12)},
		{Src: 0, Seq: 7, Node: 3, From: 2, Kind: KindAdvert, Start: ms(40), End: ms(40), Age: ms(40)},
		{Src: 0, Seq: 7, Node: 3, From: 2, Kind: KindPull, Start: ms(40), End: ms(55), Aux: 1},
		{Src: 0, Seq: 7, Node: 3, From: 2, Kind: KindPullDeliver, Hops: 2, Start: ms(55), End: ms(70), Age: ms(70)},
		{Src: 0, Seq: 7, Node: 4, From: 1, Kind: KindSyncDeliver, Hops: 2, Start: ms(200), End: ms(200), Age: ms(200)},
	}
}

func TestStitchAttributesPaths(t *testing.T) {
	traces := Stitch(sampleSpans())
	if len(traces) != 1 {
		t.Fatalf("stitched %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Src != 0 || tr.Seq != 7 {
		t.Fatalf("trace identity = %d/%d", tr.Src, tr.Seq)
	}
	if tr.Root == nil || tr.Root.Node != 0 || tr.Root.Via != "inject" {
		t.Fatalf("root = %+v", tr.Root)
	}
	if len(tr.Orphans) != 0 {
		t.Fatalf("orphans = %+v", tr.Orphans)
	}
	tree, pull, sync, fec := tr.Counts()
	if tree != 2 || pull != 1 || sync != 1 || fec != 0 {
		t.Fatalf("counts tree=%d pull=%d sync=%d fec=%d", tree, pull, sync, fec)
	}
	if got := tr.MaxHops(); got != 2 {
		t.Fatalf("MaxHops = %d, want 2", got)
	}
	byNode := map[int32]*Delivery{}
	for _, d := range tr.Deliveries {
		byNode[d.Node] = d
	}
	p := byNode[3]
	if p.Via != "pull" || p.From != 2 {
		t.Fatalf("node 3 delivery = %+v", p)
	}
	if p.Wait != 15*time.Millisecond {
		t.Fatalf("pull wait = %v, want 15ms (advert at 40ms, request at 55ms)", p.Wait)
	}
	if p.RTT != 15*time.Millisecond {
		t.Fatalf("pull rtt = %v, want 15ms (request at 55ms, reply at 70ms)", p.RTT)
	}
	if p.Attempts != 1 {
		t.Fatalf("pull attempts = %d", p.Attempts)
	}
	// Tree structure: 1 and 2 hang off 0; 3 off 2; 4 off 1.
	if len(tr.Root.Children) != 2 {
		t.Fatalf("root children = %d", len(tr.Root.Children))
	}
	if len(byNode[2].Children) != 1 || byNode[2].Children[0].Node != 3 {
		t.Fatalf("node 2 children = %+v", byNode[2].Children)
	}
	if len(byNode[1].Children) != 1 || byNode[1].Children[0].Node != 4 {
		t.Fatalf("node 1 children = %+v", byNode[1].Children)
	}
}

func TestStitchOrderIndependent(t *testing.T) {
	base := sampleSpans()
	want, err := json.Marshal(Stitch(base))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]Span(nil), base...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got, _ := json.Marshal(Stitch(shuffled))
		if !bytes.Equal(got, want) {
			t.Fatalf("stitch depends on span order:\n%s\n--\n%s", got, want)
		}
	}
}

func TestStitchOrphansMissingSender(t *testing.T) {
	// Node 5 delivered from node 9, but node 9's spans are absent (evicted
	// or unscraped): 5 must surface as an orphan, not vanish.
	spans := append(sampleSpans(), Span{
		Src: 0, Seq: 7, Node: 5, From: 9, Kind: KindTreeDeliver, Hops: 3,
		Start: 80 * time.Millisecond, End: 80 * time.Millisecond, Age: 80 * time.Millisecond,
	})
	tr := Stitch(spans)[0]
	if len(tr.Orphans) != 1 || tr.Orphans[0].Node != 5 {
		t.Fatalf("orphans = %+v", tr.Orphans)
	}
	out := tr.Render()
	if !strings.Contains(out, "orphans") || !strings.Contains(out, "node 5") {
		t.Fatalf("render hides the orphan:\n%s", out)
	}
}

func TestStitchMultipleMessagesSorted(t *testing.T) {
	spans := []Span{
		{Src: 3, Seq: 1, Node: 3, From: -1, Kind: KindInject},
		{Src: 0, Seq: 2, Node: 0, From: -1, Kind: KindInject},
		{Src: 0, Seq: 1, Node: 0, From: -1, Kind: KindInject},
	}
	traces := Stitch(spans)
	if len(traces) != 3 {
		t.Fatalf("stitched %d traces, want 3", len(traces))
	}
	order := [][2]uint32{{0, 1}, {0, 2}, {3, 1}}
	for i, want := range order {
		if uint32(traces[i].Src) != want[0] || traces[i].Seq != want[1] {
			t.Fatalf("traces[%d] = %d/%d, want %d/%d", i, traces[i].Src, traces[i].Seq, want[0], want[1])
		}
	}
	if Find(traces, 3, 1) != traces[2] || Find(traces, 9, 9) != nil {
		t.Fatalf("Find misbehaves")
	}
}

func TestRenderShape(t *testing.T) {
	out := Stitch(sampleSpans())[0].Render()
	for _, want := range []string{
		"msg 0/7 deliveries=5 (tree=2 pull=1 sync=1) max_hops=2",
		"node 0 inject",
		"├─", "└─",
		"node 3 pull hops=2 age=70ms wait=15ms rtt=15ms attempts=1",
		"node 4 sync hops=2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render lacks %q:\n%s", want, out)
		}
	}
}

func TestParseMsgRoundTrip(t *testing.T) {
	src, seq, err := ParseMsg(formatMsg(-2, 4100000000))
	if err != nil || src != -2 || seq != 4100000000 {
		t.Fatalf("round trip = %d/%d, %v", src, seq, err)
	}
	for _, bad := range []string{"", "12", "a/1", "1/b", "1/-2", "99999999999/1"} {
		if _, _, err := ParseMsg(bad); err == nil {
			t.Errorf("ParseMsg(%q) accepted", bad)
		}
	}
}

func TestChromeTraceWellFormed(t *testing.T) {
	spans := sampleSpans()
	traces := Stitch(spans)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, traces, spans); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	// One metadata event plus one per span.
	if want := 1 + len(spans); len(f.TraceEvents) != want {
		t.Fatalf("%d trace events, want %d", len(f.TraceEvents), want)
	}
	if name := f.TraceEvents[0]["name"]; name != "process_name" {
		t.Fatalf("first event = %v, want process_name metadata", name)
	}
	for _, ev := range f.TraceEvents[1:] {
		if ev["ph"] != "X" {
			t.Fatalf("span event phase = %v, want X (complete)", ev["ph"])
		}
		if dur, ok := ev["dur"].(float64); !ok || dur <= 0 {
			t.Fatalf("span event without visible duration: %v", ev)
		}
	}
}
