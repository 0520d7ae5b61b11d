package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gocast/internal/core"
	"gocast/internal/live"
)

// Payload layout: every message carries what the receivers need to check
// it and to time it from its due time.
//
//	[0:2)   publisher node     [2:4)  reserved
//	[4:8)   message index (the generator's global sequence number)
//	[8:16)  due time, ns since the run's epoch
//	[16:20) CRC-32 (IEEE) of the body
//	[20:)   body, cut from a seeded random pool
const payloadHeader = 20

// Message phases, stored per message index.
const (
	phaseWarmup int8 = -1
	phaseClosed int8 = -2
	// 0..openWindows-1 are the open-loop windows.
)

// msgTable is the generator's record of every message it tried to publish,
// indexed by message index. Slots are written by the generator before the
// publish and read by receivers after it (the publish orders the two).
type msgTable struct {
	due      []int64 // ns since epoch
	phase    []int8
	traced   []bool
	admitted []bool
	counts   []atomic.Int32 // deliveries so far
	doneAt   []atomic.Int64 // when the last node delivered, ns since epoch
	next     int
}

func newMsgTable(n int) *msgTable {
	return &msgTable{
		due: make([]int64, n), phase: make([]int8, n), traced: make([]bool, n), admitted: make([]bool, n),
		counts: make([]atomic.Int32, n), doneAt: make([]atomic.Int64, n),
	}
}

type latSample struct {
	idx uint32
	ns  int64
}

// nodeSink is one node's OnDeliver state. OnDeliver runs on the node's
// event loop; the mutex only orders it against the reader at phase ends.
type nodeSink struct {
	mu      sync.Mutex
	seen    []uint8 // deliveries per message index
	lat     []latSample
	crcBad  int64
	malform int64
}

// liveRun is one booted cluster plus the measuring state around it.
type liveRun struct {
	sc     liveScale
	epoch  time.Time
	nodes  []*live.Node
	sinks  []*nodeSink
	msgs   *msgTable
	pool   []byte // seeded body bytes
	tracer *liveTracer
	// slots holds the closed loop's free window slots; the node that makes
	// a closed-loop message complete hands its slot back.
	slots chan struct{}
	// pubSeq predicts each publisher's next core sequence number, so a
	// traced publish can be keyed before core assigns the ID.
	pubSeq map[int]uint32

	publishCalls []float64 // us, duration of Node.Publish
	lateness     []float64 // ms, open loop: publish start - due
	rejected     int64     // publishes refused with ErrOverloaded, any phase
	rejectedOpen int64     // those of them in the warm-up or the open loop
	stopped      int64
	idMismatch   int64
}

func (lr *liveRun) since() int64 { return int64(time.Since(lr.epoch)) }

func discardLog(string, ...any) {}

// liveConfig is live.FastConfig with the benchmark's frozen overrides.
func liveConfig(sc liveScale) core.Config {
	cfg := live.FastConfig()
	cfg.ReclaimAfter = sc.reclaimAfter
	cfg.HeartbeatPeriod = sc.heartbeat
	cfg.StoreMaxBytes = storeMaxBytes
	cfg.CoopcastThreshold = sc.coopThreshold
	cfg.FECSymbolSize = fecSymbolSize
	cfg.FECRepair = fecRepair
	return cfg
}

// boot starts sc.nodes live nodes, each on its own loopback TCP transport,
// joins them through node 0 and waits until every node has minDegree
// neighbours and a tree parent. It returns the time that took.
func (lr *liveRun) boot(seed int64, buf *spanBuffer) (converge time.Duration, err error) {
	sc := lr.sc
	t0 := time.Now()
	cfg := liveConfig(sc)
	lr.nodes = make([]*live.Node, sc.nodes)
	lr.sinks = make([]*nodeSink, sc.nodes)
	if buf != nil {
		lr.tracer = newLiveTracer(sc.nodes, buf)
	}
	for i := range lr.nodes {
		tcp, err := live.NewTCPTransportWithOptions(core.NodeID(i), "127.0.0.1:0", live.TCPOptions{Logf: discardLog, QueueCritical: sc.queueCritical, QueueRepair: sc.queueRepair})
		if err != nil {
			lr.close()
			return 0, fmt.Errorf("node %d: %w", i, err)
		}
		var tr live.Transport = tcp
		if lr.tracer != nil {
			tr = &tracedTransport{inner: tcp, id: i, tr: lr.tracer}
		}
		sink := &nodeSink{seen: make([]uint8, sc.maxMsgs)}
		lr.sinks[i] = sink
		node := i
		lr.nodes[i] = live.NewNode(live.NodeOptions{
			ID:            core.NodeID(i),
			Config:        cfg,
			Transport:     tr,
			Seed:          subSeed(seed, "live-node", i),
			TraceCapacity: -1,
			SpanCapacity:  -1,
			Overload:      live.OverloadOptions{Logf: discardLog},
			OnDeliver: func(id core.MessageID, payload []byte, _ time.Duration) {
				lr.onDeliver(node, sink, id, payload)
			},
		})
	}
	lc := cfg.LandmarkCount
	if lc > sc.nodes {
		lc = sc.nodes
	}
	landmarks := make([]core.Entry, lc)
	for i := range landmarks {
		landmarks[i] = lr.nodes[i].Entry()
	}
	for _, n := range lr.nodes {
		n.SetLandmarks(landmarks)
	}
	lr.nodes[0].BecomeRoot()
	for _, n := range lr.nodes[1:] {
		n.Join(lr.nodes[0].Entry())
	}
	for !lr.converged() {
		if time.Since(t0) > sc.convergeMax {
			lr.close()
			return 0, fmt.Errorf("overlay did not converge within %v", sc.convergeMax)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return time.Since(t0), nil
}

func (lr *liveRun) converged() bool {
	for i, n := range lr.nodes {
		if n.Degree() < lr.sc.minDegree {
			return false
		}
		if i != 0 && n.Parent() == core.None {
			return false
		}
	}
	return true
}

// close stops every node (and with it its transport) and waits for them.
func (lr *liveRun) close() {
	var wg sync.WaitGroup
	for _, n := range lr.nodes {
		if n == nil {
			continue
		}
		wg.Add(1)
		go func(n *live.Node) {
			defer wg.Done()
			n.Close()
		}(n)
	}
	wg.Wait()
}

// onDeliver checks and times one delivery. It runs on node's event loop.
func (lr *liveRun) onDeliver(node int, sink *nodeSink, id core.MessageID, payload []byte) {
	now := lr.since()
	if len(payload) < payloadHeader {
		sink.mu.Lock()
		sink.malform++
		sink.mu.Unlock()
		return
	}
	idx := binary.LittleEndian.Uint32(payload[4:8])
	due := int64(binary.LittleEndian.Uint64(payload[8:16]))
	sum := binary.LittleEndian.Uint32(payload[16:20])
	ok := int(idx) < len(lr.msgs.due) && crc32.ChecksumIEEE(payload[payloadHeader:]) == sum &&
		int(binary.LittleEndian.Uint16(payload[0:2])) == int(id.Source)
	sink.mu.Lock()
	if !ok {
		sink.crcBad++
		sink.mu.Unlock()
		return
	}
	sink.seen[idx]++
	sink.lat = append(sink.lat, latSample{idx: idx, ns: now - due})
	sink.mu.Unlock()
	m := lr.msgs
	if int(m.counts[idx].Add(1)) == lr.sc.nodes {
		m.doneAt[idx].Store(now)
		if m.phase[idx] == phaseClosed {
			lr.slots <- struct{}{} // never blocks: the slot was taken at publish
		}
	}
	if lr.tracer != nil && m.traced[idx] {
		lr.tracer.noteDeliver(node, id, now, lr.since())
	}
}

var errTableFull = errors.New("message table full")

// publish sends the generator's k-th message of a phase, due at dueNs,
// through the next publisher in the round-robin.
func (lr *liveRun) publish(k int, dueNs int64, phase int8) error {
	m := lr.msgs
	if m.next >= len(m.due) {
		return errTableFull
	}
	idx := m.next
	m.next++
	pub := lr.sc.publishers[k%len(lr.sc.publishers)]
	buf := make([]byte, lr.sc.payload)
	binary.LittleEndian.PutUint16(buf[0:2], uint16(pub))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(idx))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(dueNs))
	body := buf[payloadHeader:]
	off := (idx * 31) % (len(lr.pool) - len(body) + 1)
	copy(body, lr.pool[off:off+len(body)])
	binary.LittleEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(body))
	m.due[idx] = dueNs
	m.phase[idx] = phase
	m.admitted[idx] = true
	tracing := lr.tracer != nil && lr.tracer.on.Load()
	m.traced[idx] = tracing
	want := core.MessageID{Source: core.NodeID(pub), Seq: lr.pubSeq[pub]}
	span := int32(-1)
	start := lr.since()
	if tracing {
		span = lr.tracer.beginPublish(pub, want, lr.tracer.buf.now())
	}
	id, err := lr.nodes[pub].Publish(buf)
	end := lr.since()
	if tracing {
		lr.tracer.setEnd(span, lr.tracer.buf.now())
	}
	if err != nil {
		m.admitted[idx] = false
		if errors.Is(err, live.ErrOverloaded) {
			lr.rejected++
			if phase != phaseClosed {
				lr.rejectedOpen++
			}
		} else {
			lr.stopped++
		}
		return err
	}
	lr.pubSeq[pub]++
	if id != want {
		lr.idMismatch++
	}
	lr.publishCalls = append(lr.publishCalls, float64(end-start)/1e3)
	return nil
}

// windowStat is what the generator knows about one open-loop window.
type windowStat struct {
	msgs      int // publishes admitted
	cpu, wall time.Duration
	traced    bool
}

// openLoop offers seeded Poisson arrivals at sc.openRate for windows
// windows of windowLen each. Every message is due at a scheduled instant and
// is timed from it, whether or not the generator got to it on time. With
// firstPhase >= 0, window w's messages carry phase firstPhase+w and the
// generator's lateness is recorded; the warm-up passes phaseWarmup.
// traceWindow (may be nil) says which windows are traced.
func (lr *liveRun) openLoop(rng *rand.Rand, windows int, windowLen time.Duration, firstPhase int8, traceWindow func(int) bool) []windowStat {
	stats := make([]windowStat, windows)
	k := 0
	for w := range stats {
		sched := poissonSchedule(rng, lr.sc.openRate, windowLen)
		traced := traceWindow != nil && traceWindow(w)
		if lr.tracer != nil {
			lr.tracer.on.Store(traced)
		}
		phase := firstPhase
		if firstPhase >= 0 {
			phase += int8(w)
		}
		base := lr.since()
		cpu0 := processCPU()
		for _, at := range sched {
			due := base + int64(at)
			if d := due - lr.since(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if firstPhase >= 0 {
				lr.lateness = append(lr.lateness, float64(lr.since()-due)/1e6)
			}
			if lr.publish(k, due, phase) == nil {
				stats[w].msgs++
			}
			k++
		}
		if d := base + int64(windowLen) - lr.since(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		stats[w].cpu = processCPU() - cpu0
		stats[w].wall = time.Duration(lr.since() - base)
		stats[w].traced = traced
	}
	if lr.tracer != nil {
		lr.tracer.on.Store(false)
	}
	return stats
}

// closedLoop keeps sc.closedW messages outstanding for span: a message
// completes when every node delivered it; a rejected publish gives its
// slot straight back and counts as failed. It returns when the phase
// started and ended (ns since epoch), the process CPU it used, and the
// range of message indexes it published.
func (lr *liveRun) closedLoop(span time.Duration) (start, end int64, cpu time.Duration, first, last int) {
	lr.slots = make(chan struct{}, lr.sc.closedW)
	for i := 0; i < lr.sc.closedW; i++ {
		lr.slots <- struct{}{}
	}
	first = lr.msgs.next
	start = lr.since()
	cpu0 := processCPU()
	deadline := time.NewTimer(span)
	defer deadline.Stop()
	k := 0
loop:
	for {
		select {
		case <-deadline.C:
			break loop
		case <-lr.slots:
		}
		err := lr.publish(k, lr.since(), phaseClosed)
		k++
		if err != nil {
			lr.slots <- struct{}{}
			if errors.Is(err, errTableFull) {
				break loop
			}
			time.Sleep(time.Millisecond) // do not spin on a shedding node
		}
	}
	end = lr.since()
	cpu = processCPU() - cpu0
	return start, end, cpu, first, lr.msgs.next
}

// drain waits until every admitted message in [first, last) was delivered
// everywhere, or sc.drainMax passed.
func (lr *liveRun) drain(first, last int) {
	deadline := time.Now().Add(lr.sc.drainMax)
	for time.Now().Before(deadline) {
		for first < last && (!lr.msgs.admitted[first] || int(lr.msgs.counts[first].Load()) == lr.sc.nodes) {
			first++ // complete (or refused): never looked at again
		}
		if first == last {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// liveWindows derives the per-cluster phase lengths from -seconds: the
// open-loop and closed-loop shares of it are split evenly over the measured
// clusters.
func liveWindows(sc liveScale, seconds int) (windowLen, closedLen time.Duration) {
	total := float64(time.Duration(seconds)*time.Second) / float64(sc.clusters)
	windowLen = time.Duration(total * sc.openShare / float64(sc.openWindows))
	closedLen = time.Duration(total * sc.closedShare)
	return windowLen, closedLen
}

// liveTotals pools what the measured clusters of one run produced. Every
// reported value is a median over the pooled windows or groups, so one
// cluster that happened to build a deep tree does not set the result.
type liveTotals struct {
	p50s, p90s, p99s      []float64 // ms, per untraced open-loop window
	latencies             []float64 // ms, every untraced open-loop delivery
	cpuPerMsg, openCores  []float64 // per untraced open-loop window
	lateness              []float64 // ms, open loop: publish start - due
	publishCalls          []float64 // us, duration of Node.Publish
	rates                 []float64 // msg/s, per closed-loop group
	closedCores           []float64 // per cluster
	completed             int       // closed-loop messages fully delivered
	counters              core.Counters
	evictions, liveBytes  int64
	registry              map[string]int64
	gcPauseNs             uint64
	heapInuse, goroutines float64 // of the last cluster, before it is closed
}

// runLive is the live-small / live-bulk workload: sc.boots clusters are
// booted one after the other (setup_s is the median boot), and the last
// sc.clusters of them each run a warm-up, the open loop and the closed loop.
func runLive(res *result, sc liveScale, out io.Writer) {
	windowLen, closedLen := liveWindows(sc, res.Seconds)
	var buf *spanBuffer
	if res.Trace {
		buf = newSpanBuffer(1 << 20)
	}
	tot := liveTotals{registry: map[string]int64{}}
	var bootTimes []float64
	var traced *liveRun
	var tracedWins []windowStat
	for b := 0; b < sc.boots; b++ {
		lr := &liveRun{sc: sc, epoch: time.Now(), msgs: newMsgTable(sc.maxMsgs), pubSeq: map[int]uint32{}}
		// A traced run traces the last cluster only: MessageIDs repeat from
		// cluster to cluster, and one cluster's spans fill the file.
		var clusterBuf *spanBuffer
		if b == sc.boots-1 && buf != nil {
			clusterBuf = buf
			lr.epoch = buf.epoch // one clock for samples and spans
		}
		d, err := lr.boot(subSeed(res.Seed, "live-boot", b), clusterBuf)
		if err != nil {
			res.errorf("boot %d: %v", b, err)
			return
		}
		bootTimes = append(bootTimes, d.Seconds())
		if b < sc.boots-sc.clusters {
			lr.close() // booted for setup_s only
			continue
		}
		wins := lr.measure(res, &tot, subSeed(res.Seed, "live-traffic", b), windowLen, closedLen, out)
		if clusterBuf != nil {
			traced, tracedWins = lr, wins
		}
		lr.close()
	}
	fmt.Fprintf(out, "  boots (boot+join+converge): %.3f s\n", bootTimes)
	res.setN("setup_s", median(bootTimes), len(bootTimes))
	res.setN("live.converge_s", median(bootTimes), len(bootTimes))
	tot.report(res)
	if traced != nil {
		traced.reportTrace(res, tracedWins, buf, out)
	}
}

// measure drives one booted cluster through warm-up, open loop and closed
// loop, checks every delivery and adds what it saw to tot.
func (lr *liveRun) measure(res *result, tot *liveTotals, seed int64, windowLen, closedLen time.Duration, out io.Writer) []windowStat {
	sc := lr.sc
	runtime.GC() // the clusters closed before this one are garbage; collect them before anything is timed
	rng := rand.New(rand.NewSource(seed))
	lr.pool = make([]byte, sc.payload+4096)
	rng.Read(lr.pool)

	// Warm-up at the open-loop rate; it outlasts ReclaimAfter, so reclaiming
	// has begun before anything is timed.
	lr.openLoop(rng, 1, sc.warmup, phaseWarmup, nil)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// Open loop. A traced cluster alternates untraced and traced windows;
	// their CPU per message gives the tracing overhead.
	var traceWindow func(int) bool
	if lr.tracer != nil {
		traceWindow = func(w int) bool { return w%2 == 1 }
	}
	openFirst := lr.msgs.next
	wins := lr.openLoop(rng, sc.openWindows, windowLen, 0, traceWindow)
	lr.drain(openFirst, lr.msgs.next)

	cStart, cEnd, cCPU, closedFirst, closedLast := lr.closedLoop(closedLen)
	lr.drain(closedFirst, closedLast)
	runtime.ReadMemStats(&ms1)
	tot.gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
	tot.heapInuse = float64(ms1.HeapInuse) / (1 << 20)
	tot.goroutines = float64(runtime.NumGoroutine())

	lr.collectOpen(tot, wins, out)
	lr.collectClosed(tot, cStart, cEnd, cCPU, closedFirst, closedLast, out)
	lr.verify(res)
	lr.collectLayers(tot)
	return wins
}

// collectOpen turns one cluster's open-loop samples into per-window
// percentiles and CPU figures.
func (lr *liveRun) collectOpen(tot *liveTotals, wins []windowStat, out io.Writer) {
	perWindow := make([][]float64, len(wins))
	for _, s := range lr.sinks {
		s.mu.Lock()
		for _, ls := range s.lat {
			if w := lr.msgs.phase[ls.idx]; w >= 0 {
				perWindow[w] = append(perWindow[w], float64(ls.ns)/1e6)
			}
		}
		s.mu.Unlock()
	}
	var p50s, p90s []float64
	for w, win := range wins {
		if win.traced || win.msgs == 0 || len(perWindow[w]) == 0 {
			continue // end-to-end numbers come from untraced windows only
		}
		sort.Float64s(perWindow[w])
		tot.latencies = append(tot.latencies, perWindow[w]...)
		p50s = append(p50s, percentile(perWindow[w], 0.50))
		p90s = append(p90s, percentile(perWindow[w], 0.90))
		tot.p99s = append(tot.p99s, percentile(perWindow[w], 0.99))
		tot.cpuPerMsg = append(tot.cpuPerMsg, msOf(win.cpu)/float64(win.msgs))
		tot.openCores = append(tot.openCores, win.cpu.Seconds()/win.wall.Seconds())
	}
	tot.p50s = append(tot.p50s, p50s...)
	tot.p90s = append(tot.p90s, p90s...)
	tot.lateness = append(tot.lateness, lr.lateness...)
	tot.publishCalls = append(tot.publishCalls, lr.publishCalls...)
	fmt.Fprintf(out, "  open loop %.0f msg/s, untraced windows: p50 %.3f ms, p90 %.3f ms\n", lr.sc.openRate, p50s, p90s)
}

// collectClosed turns one cluster's completion times into group rates. The
// completions after the discarded lead-in are cut into sc.closedGroups
// groups of equal count; each group's rate is its count over the time it
// took. The median group is reported: continuous (no slice-count
// quantisation) and deaf to a single stall (a GC pause, a tree repair) the
// way a mean over the phase is not.
func (lr *liveRun) collectClosed(tot *liveTotals, start, end int64, cpu time.Duration, first, last int, out io.Writer) {
	lead := start + int64(float64(end-start)*lr.sc.closedDiscard)
	var done []int64
	completed := 0
	for i := first; i < last; i++ {
		at := lr.msgs.doneAt[i].Load()
		if at == 0 {
			continue
		}
		completed++
		if at >= lead && at <= end {
			done = append(done, at)
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a] < done[b] })
	groups := lr.sc.closedGroups
	if groups > len(done) {
		groups = len(done)
	}
	rates := make([]float64, 0, groups)
	from := lead
	for g := 0; g < groups; g++ {
		lo, hi := g*len(done)/groups, (g+1)*len(done)/groups
		to := done[hi-1]
		if to > from {
			rates = append(rates, float64(hi-lo)/(float64(to-from)/1e9))
		}
		from = to
	}
	tot.rates = append(tot.rates, rates...)
	tot.completed += completed
	tot.closedCores = append(tot.closedCores, cpu.Seconds()/(float64(end-start)/1e9))
	fmt.Fprintf(out, "  closed loop W=%d: %d messages fully delivered in %.2fs; group rates %.1f msg/s\n",
		lr.sc.closedW, completed, float64(end-start)/1e9, rates)
}

// verify is the correctness check: an operation is one (message, node)
// pair; every admitted publish must be delivered exactly once per node
// with a matching checksum, and a refused publish fails all its pairs.
func (lr *liveRun) verify(res *result) {
	m := lr.msgs
	nodes := int64(lr.sc.nodes)
	res.Attempted += int64(m.next) * nodes
	var missing, dup, unexpected int64
	for n, s := range lr.sinks {
		s.mu.Lock()
		for i := 0; i < m.next; i++ {
			switch c := s.seen[i]; {
			case !m.admitted[i] && c > 0:
				unexpected++
			case m.admitted[i] && c == 0:
				missing++
			case c > 1:
				dup++
			}
		}
		if s.crcBad+s.malform > 0 {
			res.errorf("node %d: %d deliveries failed the checksum, %d were malformed", n, s.crcBad, s.malform)
		}
		s.mu.Unlock()
	}
	refused := (lr.rejected + lr.stopped) * nodes
	res.Failed += missing + dup + unexpected + refused
	if missing+dup+unexpected > 0 {
		res.errorf("%d (message, node) pairs never delivered, %d delivered twice, %d delivered though refused", missing, dup, unexpected)
	}
	if lr.rejected+lr.stopped > 0 {
		res.errorf("%d publishes rejected as overloaded (%d of them outside the closed loop), %d refused by a stopped node",
			lr.rejected, lr.rejectedOpen, lr.stopped)
	}
	if lr.idMismatch > 0 {
		res.errorf("%d publishes got an unexpected MessageID", lr.idMismatch)
	}
}

// collectLayers sums one cluster's per-node protocol, store and overload
// counters into tot.
func (lr *liveRun) collectLayers(tot *liveTotals) {
	c := &tot.counters
	tot.liveBytes = 0 // a gauge: the last cluster's
	for _, n := range lr.nodes {
		s := n.Stats()
		c.Delivered += s.Delivered
		c.PayloadsRecv += s.PayloadsRecv
		c.Duplicates += s.Duplicates
		c.PullsServed += s.PullsServed
		c.GossipsSent += s.GossipsSent
		c.SymbolsRecv += s.SymbolsRecv
		c.SymbolDups += s.SymbolDups
		c.FECDecodeFailures += s.FECDecodeFailures
		st := n.StoreStats()
		tot.evictions += st["evictions"]
		tot.liveBytes += st["live_bytes"]
		for _, m := range n.Registry().Gather() {
			tot.registry[m.Name] += m.Value
		}
	}
}

// report sets the run's metrics from the pooled clusters.
func (t *liveTotals) report(res *result) {
	all := sortedCopy(t.latencies)
	res.setN("deliver_p50_ms", median(t.p50s), len(all))
	res.setN("deliver_p90_ms", median(t.p90s), len(all))
	res.setN("live.deliver_p99_ms", median(t.p99s), len(all))
	res.setN("live.deliver_tail_ms", percentile(all, tailQuantile(len(all))), len(all))
	res.setN("cpu_ms_per_msg", median(t.cpuPerMsg), len(t.cpuPerMsg))
	res.set("live.open_cpu_cores", median(t.openCores))
	late := sortedCopy(t.lateness)
	res.setN("live.gen_lateness_p99_ms", percentile(late, 0.99), len(late))
	calls := sortedCopy(t.publishCalls)
	res.setN("live.publish_call_p50_us", percentile(calls, 0.50), len(calls))
	res.setN("sustained_msgs_per_s", median(t.rates), t.completed)
	res.set("live.closed_cpu_cores", median(t.closedCores))
	res.set("failed_share", ratio(res.Failed, res.Attempted))

	res.setCoreRatios(t.counters)
	res.set("store.evictions", float64(t.evictions))
	res.set("store.live_bytes_mb", float64(t.liveBytes)/(1<<20))
	reg := t.registry
	res.set("live.mailbox_shed_total", float64(reg["gocast_live_mailbox_dropped_total"]))
	res.set("live.tcp_frames_dropped_total", float64(reg["gocast_transport_tcp_frames_dropped_total"]))
	res.set("live.tcp_queue_overflows_total", float64(reg["gocast_transport_tcp_queue_overflows_total"]))
	res.set("live.publish_rejected_total", float64(reg["gocast_overload_publish_rejected_total"]))
	res.set("live.overload_transitions_total", float64(reg["gocast_overload_transitions_total"]))
	res.set("live.gc_pause_ms", float64(t.gcPauseNs)/1e6)
	res.set("live.heap_inuse_mb", t.heapInuse)
	res.set("live.goroutines", t.goroutines)
}

// reportTrace prints the self-time table, writes the span file and sets
// the T metrics of a traced live run.
func (lr *liveRun) reportTrace(res *result, wins []windowStat, buf *spanBuffer, out io.Writer) {
	t := lr.tracer
	t.sampleMu.Lock()
	transit := sortedCopy(t.transit)
	nodeProc := sortedCopy(t.nodeProc)
	hopsSum, hopsN := t.hopsSum, t.hopsN
	t.sampleMu.Unlock()
	res.setN("live.hop_transit_p50_us", percentile(transit, 0.50), len(transit))
	res.setN("live.hop_transit_p99_us", percentile(transit, 0.99), len(transit))
	res.setN("live.node_proc_p50_us", percentile(nodeProc, 0.50), len(nodeProc))
	if hopsN > 0 {
		res.setN("live.hops_mean", float64(hopsSum)/float64(hopsN), int(hopsN))
	}
	var tracedCPU, plainCPU time.Duration
	tracedMsgs, plainMsgs := 0, 0
	for _, w := range wins {
		if w.traced {
			tracedCPU += w.cpu
			tracedMsgs += w.msgs
		} else {
			plainCPU += w.cpu
			plainMsgs += w.msgs
		}
	}
	if tracedMsgs > 0 && plainMsgs > 0 {
		perTraced := tracedCPU.Seconds() / float64(tracedMsgs)
		perPlain := plainCPU.Seconds() / float64(plainMsgs)
		res.set("live.trace_overhead_pct", (perTraced/perPlain-1)*100)
		remote := float64(tracedMsgs) * float64(lr.sc.nodes-1)
		res.set("wire.bytes_per_payload_byte", float64(t.wireBytes.Load())/(remote*float64(lr.sc.payload)))
		res.set("wire.frames_per_delivery", float64(t.frames.Load())/remote)
	}
	buf.printSelfTimes(out)
	path := res.traceFilePath()
	if n, err := buf.writeChrome(path); err != nil {
		res.errorf("writing %s: %v", path, err)
	} else {
		fmt.Fprintf(out, " wrote %d spans (at most the first %d messages and %d spans) to %s\n", n, maxTraceFileMessages, maxTraceFileSpans, path)
	}
}
