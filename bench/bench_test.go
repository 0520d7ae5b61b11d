package main

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// Toy scales: the same code paths as the frozen workloads, sized to finish
// in about a second each (and to stay -race-safe).
var toySim = simScale{
	nodes: 64, converge: 40 * time.Second, msgs: 20, rate: 20, payload: 1024,
	streamDrain: 10 * time.Second, repairDrain: 35 * time.Second, killFrac: 0.20, iterSeconds: 0.5,
}

func toyLive(payload, coop int) liveScale {
	return liveScale{
		nodes: 4, publishers: []int{1, 3}, minDegree: 3, payload: payload, coopThreshold: coop, boots: 2, clusters: 2,
		convergeMax: 20 * time.Second, reclaimAfter: time.Second, heartbeat: 250 * time.Millisecond,
		warmup: 200 * time.Millisecond, openRate: 200, openWindows: 2, openShare: 0.5,
		closedW: 4, closedShare: 0.5, closedDiscard: 0.125, closedGroups: 3,
		drainMax: 5 * time.Second, maxMsgs: 1 << 13,
	}
}

func runToy(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	res := newResult(workload, 7, 1, trace)
	res.TraceDir = t.TempDir()
	switch workload {
	case "sim-seq":
		runSim(res, toySim, 0, io.Discard)
	case "sim-sharded":
		runSim(res, toySim, 2, io.Discard)
	case "live-small":
		runLive(res, toyLive(64, 0), io.Discard)
	case "live-bulk":
		runLive(res, toyLive(16<<10, 8<<10), io.Discard)
	default:
		t.Fatalf("unknown workload %s", workload)
	}
	if !res.correct() {
		t.Fatalf("%s: failed=%d errors=%v", workload, res.Failed, res.Errors)
	}
	return res
}

// driverMetrics parses the final stdout line the way the acceptance driver
// does and returns its metric names and units.
func driverMetrics(t *testing.T, res *result) map[string]string {
	t.Helper()
	line, err := res.driverLine()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Correct   *bool `json:"correct"`
		Attempted *int64
		Failed    *int64
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&parsed); err != nil {
		t.Fatalf("result line does not parse: %v\n%s", err, line)
	}
	if parsed.Correct == nil || parsed.Attempted == nil || parsed.Failed == nil || *parsed.Attempted < 1 {
		t.Fatalf("result line lacks correct/attempted/failed: %s", line)
	}
	out := map[string]string{}
	for name, m := range parsed.Metrics {
		if m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
			t.Errorf("metric %s has no finite value", name)
		}
		out[name] = m.Unit
	}
	return out
}

func sameCatalogue(t *testing.T, what string, got map[string]string, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, catalogue has %d", what, len(got), len(want))
	}
	for _, d := range want {
		unit, ok := got[d.name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, d.name)
		} else if unit != d.unit {
			t.Errorf("%s: metric %s has unit %q, want %q", what, d.name, unit, d.unit)
		}
	}
}

// TestWorkloadsEmitEndToEnd runs every workload untraced at toy scale: each
// must pass its correctness checks and emit exactly the gated metrics, all
// non-zero.
func TestWorkloadsEmitEndToEnd(t *testing.T) {
	for _, w := range workloadNames {
		w := w
		t.Run(w, func(t *testing.T) {
			res := runToy(t, w, false)
			sameCatalogue(t, w, driverMetrics(t, res), endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.name] <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w, d.name, res.Metrics[d.name])
				}
			}
			if res.Attempted < 1 {
				t.Errorf("%s: attempted %d", w, res.Attempted)
			}
		})
	}
}

// TestTracedRunsEmitPerLayer runs one simulated and one live workload
// traced: the result line must carry exactly the per-layer catalogue, the
// span file must exist, and the sharded/sequential cross-check inside the
// traced sim run must hold.
func TestTracedRunsEmitPerLayer(t *testing.T) {
	for _, w := range []string{"sim-sharded", "live-bulk"} {
		w := w
		t.Run(w, func(t *testing.T) {
			res := runToy(t, w, true)
			sameCatalogue(t, w, driverMetrics(t, res), perLayer)
			if st, err := os.Stat(res.traceFilePath()); err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
			probe := "live.hop_transit_p50_us"
			if w == "sim-sharded" {
				probe = "netsim.sends_total"
				if res.Metrics["netsim.effective_shards"] != 2 {
					t.Errorf("effective shards %v, want 2", res.Metrics["netsim.effective_shards"])
				}
				if res.Metrics["netsim.shard_speedup"] <= 0 {
					t.Errorf("shard speed-up not reported")
				}
			}
			if res.Metrics[probe] <= 0 {
				t.Errorf("%s = %v, want > 0", probe, res.Metrics[probe])
			}
		})
	}
}

// TestSimEnginesAgree pins the free oracle: the same scenario and seed give
// the same events, counters and deliveries on both engines, on more than one
// seed, and another seed gives different ones.
func TestSimEnginesAgree(t *testing.T) {
	var first simIter
	for _, seed := range []int64{11, 13} { // both disagreed before repairInjectOffset
		seq := runSimIteration(toySim, seed, 0, nil, nil)
		sharded := runSimIteration(toySim, seed, 2, nil, nil)
		if sharded.effectiveShards != 2 {
			t.Fatalf("sharded run used %d shards", sharded.effectiveShards)
		}
		if seq.digest != sharded.digest || seq.events() != sharded.events() || seq.streamP90 != sharded.streamP90 || seq.allP99 != sharded.allP99 {
			t.Errorf("seed %d: engines disagree: digest %08x/%08x events %d/%d p90 %v/%v p99 %v/%v PeerDowns %d/%d", seed,
				seq.digest, sharded.digest, seq.events(), sharded.events(), seq.streamP90, sharded.streamP90,
				seq.allP99, sharded.allP99, seq.counters.PeerDowns, sharded.counters.PeerDowns)
		}
		if seed == 11 {
			first = seq
		} else if seq.digest == first.digest {
			t.Errorf("two seeds gave the same result digest %08x", seq.digest)
		}
	}
	if again := runSimIteration(toySim, 11, 0, nil, nil); again.digest != first.digest {
		t.Errorf("the sequential engine is not deterministic: %08x then %08x", first.digest, again.digest)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps spec.go and BENCHMARK.json in
// lockstep: same workloads, same metrics, same units, legal names.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, spec.go has %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v", spec.Paths)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, spec.go has %v", names, workloadNames)
	}
	seen := map[string]bool{}
	check := func(what, name, unit, better string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || (better != "lower" && better != "higher") {
			t.Errorf("%s metric %q: bad name, unit %q or direction %q", what, name, unit, better)
		}
		if seen[name] {
			t.Errorf("metric name %q used twice", name)
		}
		seen[name] = true
	}
	got := map[string]string{}
	setup := false
	for _, m := range spec.EndToEnd {
		check("end-to-end", m.Name, m.Unit, m.Better)
		got[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	sameCatalogue(t, "end_to_end", got, endToEnd)
	got = map[string]string{}
	for _, m := range spec.PerLayer {
		check("per-layer", m.Name, m.Unit, m.Better)
		got[m.Name] = m.Unit
	}
	sameCatalogue(t, "per_layer", got, perLayer)
}

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46}} {
		if got := percentile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample must give 0")
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Error("median must not depend on input order")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(v, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("got %v %v %v, want 1 2 3", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{7})
	if q1 != 7 || q2 != 7 || q3 != 7 {
		t.Errorf("single value: got %v %v %v", q1, q2, q3)
	}
}

func TestTailQuantile(t *testing.T) {
	if q := tailQuantile(1000); q != 0.99 {
		t.Errorf("tailQuantile(1000) = %v, want 0.99", q)
	}
	if q := tailQuantile(10); q != 0.5 {
		t.Errorf("tailQuantile(10) = %v, want the median", q)
	}
}

func TestPoissonSchedule(t *testing.T) {
	const rate, span = 1500.0, 4 * time.Second
	a := poissonSchedule(rand.New(rand.NewSource(5)), rate, span)
	b := poissonSchedule(rand.New(rand.NewSource(5)), rate, span)
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs", i)
		}
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) || a[len(a)-1] >= span {
		t.Error("arrivals must ascend and stay inside the span")
	}
	if want := int(rate * span.Seconds()); len(a) != want {
		t.Errorf("%d arrivals, want exactly %d", len(a), want)
	}
	if c := poissonSchedule(rand.New(rand.NewSource(6)), rate, span); len(c) != len(a) || c[0] == a[0] {
		t.Error("another seed must give the same count at other instants")
	}
	// Exponential-like gaps: about 1/e of them exceed the mean gap.
	long := 0
	meanGap := span / time.Duration(len(a))
	for i := 1; i < len(a); i++ {
		if a[i]-a[i-1] > meanGap {
			long++
		}
	}
	if share := float64(long) / float64(len(a)-1); math.Abs(share-1/math.E) > 0.03 {
		t.Errorf("%.3f of the gaps exceed the mean gap, want about 0.368", share)
	}
}

func TestDigestAndSubSeed(t *testing.T) {
	d := newDigest32()
	ref := fnv.New32a()
	var b [8]byte
	for _, v := range []uint64{0, 1, 1 << 40, math.MaxUint64} {
		d.add(v)
		binary.LittleEndian.PutUint64(b[:], v)
		ref.Write(b[:])
	}
	if d.sum() != ref.Sum32() {
		t.Errorf("digest %08x, FNV-1a reference %08x", d.sum(), ref.Sum32())
	}
	x, y := newDigest32(), newDigest32()
	x.add(1)
	x.add(2)
	y.add(2)
	y.add(1)
	if x.sum() == y.sum() {
		t.Error("digest must depend on order")
	}
	seeds := map[int64]bool{}
	for k := 0; k < 100; k++ {
		s := subSeed(1, "sim-iteration", k)
		if seeds[s] {
			t.Fatalf("subSeed(1, %d) = %d repeats an earlier stream", k, s)
		}
		seeds[s] = true
	}
	if subSeed(1, "a", 0) == subSeed(1, "b", 0) || subSeed(1, "a", 0) == subSeed(2, "a", 0) {
		t.Error("subSeed must depend on label and master seed")
	}
}

// TestSelfTimes checks the self-time rule on a hand-built span tree:
// overlapping children are counted once and clipped to the parent.
func TestSelfTimes(t *testing.T) {
	b := newSpanBuffer(16)
	root := b.add(span{kind: spanPublish, start: 0, end: 100, parent: -1})
	b.add(span{kind: spanSend, start: 10, end: 40, parent: root})
	b.add(span{kind: spanSend, start: 30, end: 60, parent: root})  // overlaps the first
	b.add(span{kind: spanSend, start: 90, end: 150, parent: root}) // sticks out past the parent
	rows := map[string]selfRow{}
	for _, r := range b.selfTimes() {
		rows[r.name] = r
	}
	if got := rows["publish"].self; got != 40 {
		t.Errorf("publish self time %v, want 40ns (100 - [10,60) - [90,100))", got)
	}
	if got := rows["send"]; got.count != 3 || got.self != got.total || got.total != 120 {
		t.Errorf("send row %+v", got)
	}
	full := newSpanBuffer(1)
	full.add(span{})
	if full.add(span{}) != -1 || full.dropped != 1 {
		t.Error("a full buffer must count, not store")
	}
}
