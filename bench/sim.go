package main

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"runtime/metrics"
	"time"

	"gocast/internal/core"
	"gocast/internal/latency"
	"gocast/internal/netsim"
)

// simIter is what one iteration of the simulated scenario measured: a
// fresh cluster, overlay convergence (set-up), then the two timed phases.
type simIter struct {
	synth, build, setup  time.Duration // host wall; setup includes synth and build
	stream, repair       time.Duration // host wall of the timed phases
	cpu                  time.Duration // process CPU over the timed phases
	convergeEvents       uint64
	streamEvents         uint64
	repairEvents         uint64
	mallocs, allocBytes  uint64  // over the timed phases
	gcCPU                float64 // GC CPU seconds over the timed phases
	heapInuse            uint64
	streamP50, streamP90 time.Duration // virtual inject->deliver delay, failure-free stream phase
	allP50, allP99       time.Duration // the same over both phases
	deliveries           int
	attempted, failed    int64
	digest               uint32 // receive counts, delay distribution, protocol counters, event count
	effectiveShards      int
	counters             core.Counters
	storeEvictions       int64
	storeLiveBytes       int64
	errs                 []string
}

func (it *simIter) wall() time.Duration { return it.stream + it.repair }
func (it *simIter) events() uint64 {
	return it.convergeEvents + it.streamEvents + it.repairEvents
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runSimIteration runs the scenario once. shards <= 1 selects the
// sequential engine. observer (may be nil) is installed as
// netsim.Options.Observer, which forces sequential execution; spans (may
// be nil) receives one span per phase.
func runSimIteration(sc simScale, seed int64, shards int, observer netsim.Observer, spans *spanBuffer) simIter {
	var it simIter
	timed := func(kind uint8, parent int32, fn func()) time.Duration {
		t0 := time.Now()
		if spans != nil {
			spans.driverSpan(kind, parent, fn)
		} else {
			fn()
		}
		return time.Since(t0)
	}
	// The iteration span is added first so the phases can name it as their
	// parent; its end is patched when the iteration finishes.
	parent := int32(-1)
	if spans != nil {
		now := spans.now()
		parent = spans.add(span{kind: spanIteration, node: -1, peer: -1, sym: -1, start: now, end: now, parent: -1})
	}

	// Start every iteration from a collected heap: the previous iteration's
	// cluster is garbage by now, and when the collector gets to it should
	// not depend on where the timed phases happen to fall.
	runtime.GC()
	cfg := core.DefaultConfig()
	var mat *latency.Matrix
	var c *netsim.Cluster
	t0 := time.Now()
	it.synth = timed(spanSynthesize, parent, func() {
		sites := sc.nodes
		if sites > latency.KingSites {
			sites = latency.KingSites
		}
		mat = latency.Synthesize(sites, latencyMatrixSeed)
	})
	it.build = timed(spanBuild, parent, func() {
		c = netsim.New(netsim.Options{Nodes: sc.nodes, Seed: seed, Config: cfg, Matrix: mat, Shards: shards, Observer: observer})
		c.BootstrapMembership(cfg.MemberViewSize / 2)
		c.WireRandom(cfg.TargetDegree() / 2)
		c.Start(0)
	})
	timed(spanConverge, parent, func() { c.Run(sc.converge) })
	it.setup = time.Since(t0)
	it.convergeEvents = c.ExecutedEvents()
	it.effectiveShards = c.EffectiveShards()

	payload := make([]byte, sc.payload)
	for i := range payload {
		payload[i] = byte(i*7 + int(seed))
	}
	span := time.Duration(float64(sc.msgs) / sc.rate * float64(time.Second))

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	cpu0 := processCPU()
	it.stream = timed(spanStream, parent, func() {
		c.InjectStream(sc.msgs, sc.rate, payload)
		c.Run(span + sc.streamDrain)
	})
	it.streamEvents = c.ExecutedEvents() - it.convergeEvents
	streamCDF := c.Delays().CDF()
	it.streamP50, it.streamP90 = streamCDF.Quantile(0.50), streamCDF.Quantile(0.90)
	it.repair = timed(spanRepair, parent, func() {
		// Maintenance and failure detection stay on: the overlay and the
		// tree repair themselves while the second stream flows.
		c.KillFraction(sc.killFrac)
		c.Run(repairInjectOffset)
		c.InjectStream(sc.msgs, sc.rate, payload)
		c.Run(span + sc.repairDrain)
	})
	it.repairEvents = c.ExecutedEvents() - it.convergeEvents - it.streamEvents
	it.cpu = processCPU() - cpu0
	it.gcCPU = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&ms1)
	it.mallocs = ms1.Mallocs - ms0.Mallocs
	it.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	it.heapInuse = ms1.HeapInuse
	if spans != nil && parent >= 0 {
		spans.mu.Lock()
		spans.spans[parent].end = spans.now()
		spans.mu.Unlock()
	}

	// Correctness: every injected message reached every node alive at
	// drain, nothing stably-up missed anything, and the engine ran with
	// the shard count that was asked for.
	rec := c.Delays()
	cdf := rec.CDF()
	it.deliveries = rec.Count()
	it.attempted = int64(rec.Count() + rec.Misses())
	it.failed = int64(rec.Misses())
	it.allP50, it.allP99 = cdf.Quantile(0.50), cdf.Quantile(0.99)
	if c.Messages() != 2*sc.msgs {
		it.errs = append(it.errs, fmt.Sprintf("injected %d messages, want %d", c.Messages(), 2*sc.msgs))
	}
	if v := c.AtomicityViolations(atomicityGrace); v != 0 {
		it.errs = append(it.errs, fmt.Sprintf("%d atomicity violations", v))
	}
	want := shards
	if want < 1 || observer != nil {
		want = 1
	}
	if it.effectiveShards != want {
		it.errs = append(it.errs, fmt.Sprintf("effective shards %d, want %d", it.effectiveShards, want))
	}
	it.counters = c.SumCounters()
	for i := 0; i < c.Nodes(); i++ {
		if !c.Alive(i) {
			continue
		}
		st := c.Node(i).Store()
		it.storeEvictions += st.Counters()["evictions"]
		it.storeLiveBytes += st.Bytes()
	}
	it.digest = simDigest(c, it.counters)
	return it
}

// simDigest folds what a run produced into 32 bits: per-message receive
// counts, the whole delivery-delay distribution, every protocol counter
// summed over the nodes and the event count. It is equal on both engines
// for the same seed, and a performance-only change must leave it alone.
func simDigest(c *netsim.Cluster, counters core.Counters) uint32 {
	d := newDigest32()
	for _, n := range c.ReceiveCounts() {
		d.add(uint64(n))
	}
	cdf := c.Delays().CDF()
	const points = 1000
	for i := 0; i <= points; i++ {
		d.add(uint64(cdf.Quantile(float64(i) / points)))
	}
	d.add(uint64(cdf.Mean()))
	v := reflect.ValueOf(counters)
	for i := 0; i < v.NumField(); i++ {
		d.add(uint64(v.Field(i).Int()))
	}
	d.add(c.ExecutedEvents())
	return d.sum()
}

// simIterations maps -seconds to the number of iterations of a run.
func simIterations(sc simScale, seconds int) int {
	n := int(float64(seconds)/sc.iterSeconds + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

// runSim is the sim-seq (shards <= 1) and sim-sharded (shards = 2)
// workload: the same scenario on sub-seeds of seed, iterations times. The
// reported values are medians over the iterations, except the exact
// counts (events, digest), which are iteration 0's.
func runSim(res *result, sc simScale, shards int, out io.Writer) {
	iters := simIterations(sc, res.Seconds)
	if res.Trace {
		iters = 2
	}
	its := make([]simIter, iters)
	for i := range its {
		its[i] = runSimIteration(sc, subSeed(res.Seed, "sim-iteration", i), shards, nil, nil)
		fmt.Fprintf(out, "  iteration %d: setup %.3fs stream %.3fs repair %.3fs events %d digest %08x\n",
			i, its[i].setup.Seconds(), its[i].stream.Seconds(), its[i].repair.Seconds(), its[i].events(), its[i].digest)
	}
	reportSim(res, its)
	if res.Trace {
		traceSim(res, sc, shards, its[0], out)
	}
}

func reportSim(res *result, its []simIter) {
	col := func(f func(*simIter) float64) []float64 {
		v := make([]float64, len(its))
		for i := range its {
			v[i] = f(&its[i])
		}
		return v
	}
	med := func(f func(*simIter) float64) float64 { return median(col(f)) }
	n := len(its)
	for i := range its {
		res.Attempted += its[i].attempted
		res.Failed += its[i].failed
		for _, e := range its[i].errs {
			res.errorf("iteration %d: %s", i, e)
		}
	}
	first := &its[0]

	res.setN("setup_s", med(func(it *simIter) float64 { return it.setup.Seconds() }), n)
	res.setN("deliver_p90_ms", med(func(it *simIter) float64 { return msOf(it.streamP90) }), n)
	res.setN("deliver_p50_ms", med(func(it *simIter) float64 { return msOf(it.streamP50) }), n)
	res.setN("virt_deliver_p50_ms", med(func(it *simIter) float64 { return msOf(it.allP50) }), first.deliveries)
	res.setN("virt_deliver_p99_ms", med(func(it *simIter) float64 { return msOf(it.allP99) }), first.deliveries)

	perEvent := func(d time.Duration, ev uint64) float64 { return float64(d) / float64(ev) }
	timedEvents := func(it *simIter) float64 { return float64(it.streamEvents + it.repairEvents) }
	res.set("netsim.build_ms", med(func(it *simIter) float64 { return msOf(it.build) }))
	res.set("netsim.converge_ns_per_event", med(func(it *simIter) float64 {
		return perEvent(it.setup-it.build-it.synth, it.convergeEvents)
	}))
	res.set("netsim.stream_ns_per_event", med(func(it *simIter) float64 { return perEvent(it.stream, it.streamEvents) }))
	res.set("netsim.repair_ns_per_event", med(func(it *simIter) float64 { return perEvent(it.repair, it.repairEvents) }))
	res.set("netsim.stream_wall_s", med(func(it *simIter) float64 { return it.stream.Seconds() }))
	res.set("netsim.repair_wall_s", med(func(it *simIter) float64 { return it.repair.Seconds() }))
	res.set("wall_s", med(func(it *simIter) float64 { return it.wall().Seconds() }))
	res.set("netsim.events", float64(first.events()))
	res.set("netsim.events_per_s", med(func(it *simIter) float64 { return timedEvents(it) / it.wall().Seconds() }))
	res.set("netsim.allocs_per_event", med(func(it *simIter) float64 { return float64(it.mallocs) / timedEvents(it) }))
	res.set("netsim.alloc_bytes_per_event", med(func(it *simIter) float64 { return float64(it.allocBytes) / timedEvents(it) }))
	res.set("netsim.gc_cpu_share", med(func(it *simIter) float64 { return it.gcCPU / it.cpu.Seconds() }))
	res.set("netsim.heap_inuse_mb", med(func(it *simIter) float64 { return float64(it.heapInuse) / (1 << 20) }))
	res.set("netsim.effective_shards", float64(first.effectiveShards))
	res.set("netsim.cpu_cores_used", med(func(it *simIter) float64 { return it.cpu.Seconds() / it.wall().Seconds() }))
	res.set("netsim.result_digest", float64(first.digest))

	res.setCoreRatios(first.counters)
	res.set("store.evictions", float64(first.storeEvictions))
	res.set("store.live_bytes_mb", float64(first.storeLiveBytes)/(1<<20))
	res.set("failed_share", ratio(res.Failed, res.Attempted))
}

// traceSim is the traced part of a -trace sim run, all on iteration 0's
// seed: the same scenario on the other engine (results must be identical,
// and the two walls give the shard speed-up), then once more under an
// Observer with a span per phase. An Observer forces sequential execution,
// so for sim-sharded the spans time the sequential engine and only the
// send counts carry over (they are identical by determinism).
func traceSim(res *result, sc simScale, shards int, base simIter, out io.Writer) {
	seed := subSeed(res.Seed, "sim-iteration", 0)
	otherShards, seqWall, shardedWall := 2, base.wall(), time.Duration(0)
	if shards > 1 {
		otherShards = 0
	}
	other := runSimIteration(sc, seed, otherShards, nil, nil)
	if shards > 1 {
		seqWall, shardedWall = other.wall(), base.wall()
	} else {
		shardedWall = other.wall()
	}
	for _, e := range other.errs {
		res.errorf("counterpart engine: %s", e)
	}
	if other.digest != base.digest || other.events() != base.events() {
		res.errorf("sequential and sharded engines disagree: result digest %08x vs %08x, events %d vs %d",
			base.digest, other.digest, base.events(), other.events())
	}
	res.set("netsim.shard_speedup", seqWall.Seconds()/shardedWall.Seconds())

	spans := newSpanBuffer(1 << 10)
	var sends sendCounter
	traced := runSimIteration(sc, seed, shards, sends.observe, spans)
	for _, e := range traced.errs {
		res.errorf("traced iteration: %s", e)
	}
	if traced.digest != base.digest {
		res.errorf("the observed iteration ran differently: result digest %08x vs %08x", traced.digest, base.digest)
	}
	res.set("netsim.sends_total", float64(sends.sends))
	res.set("netsim.wire_bytes_total", float64(sends.bytes))
	res.set("netsim.sends_per_event", float64(sends.sends)/float64(traced.events()))
	seqUntraced := base.wall() // the observed iteration always runs sequentially
	if shards > 1 {
		seqUntraced = seqWall
	}
	fmt.Fprintf(out, " counterpart engine (shards=%d): wall %.3fs digest %08x; observed sequential wall %.3fs vs unobserved %.3fs (observer overhead %+.1f%%)\n",
		otherShards, other.wall().Seconds(), other.digest, traced.wall().Seconds(), seqUntraced.Seconds(),
		(traced.wall().Seconds()/seqUntraced.Seconds()-1)*100)
	spans.printSelfTimes(out)
	path := res.traceFilePath()
	if n, err := spans.writeChrome(path); err != nil {
		res.errorf("writing %s: %v", path, err)
	} else {
		fmt.Fprintf(out, " wrote %d spans to %s\n", n, path)
	}
}

func (r *result) traceFilePath() string { return r.TraceDir + "/" + r.Workload + ".trace.json" }
