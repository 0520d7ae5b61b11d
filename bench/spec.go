package main

import "time"

// Frozen load constants. They are never adapted at run time, so two commits
// always get the same load; bench/README.md records the saturation each was
// chosen against. BENCHMARK.json's schema has no room for them, so this file
// is where they are frozen.

// runSeconds is BENCHMARK.json's run_seconds: the nominal measured time the
// window lengths below are derived from. -seconds scales the number of sim
// iterations and the live window lengths, never a rate or a size.
const runSeconds = 25

// simScale sizes one iteration of the simulated scenario (sim-seq and
// sim-sharded run byte-for-byte the same one).
type simScale struct {
	nodes       int
	converge    time.Duration // virtual time given to overlay convergence (set-up)
	msgs        int           // messages per phase
	rate        float64       // injections per virtual second
	payload     int           // bytes
	streamDrain time.Duration // virtual time after the last stream injection
	repairDrain time.Duration // same for the repair phase; must exceed atomicityGrace
	killFrac    float64
	// iterSeconds is the nominal host cost of one iteration on the
	// reference box; iterations per run = -seconds / iterSeconds.
	iterSeconds float64
}

// atomicityGrace is the age below which netsim.AtomicityViolations does not
// yet judge a message.
const atomicityGrace = 30 * time.Second

// repairInjectOffset is the virtual time between KillFraction and the repair
// phase's InjectStream. netsim tells a dead node's neighbours DetectionDelay
// (1 s) after the kill, and at 20 msg/s the 20th injection would fall on that
// very instant. The two engines order that tie differently (the sequential
// one runs the notice first, the sharded one the injection, whose source then
// forwards to a dead child once more), which showed as one or two extra
// PeerDowns and events on a third of the seeds. Off the 50 ms grid there is
// no tie and the engines agree exactly; bench/README.md has the finding.
const repairInjectOffset = 7 * time.Millisecond

// latencyMatrixSeed fixes the synthetic King latency matrix. The paper
// evaluates on one measured matrix; -seed varies what the paper varies on
// top of it (initial views and wiring, message sources, which nodes fail).
// A matrix per seed moves the virtual delay percentiles by +-30 % between
// seeds, which would drown any protocol change.
const latencyMatrixSeed = 424242

var fullSim = simScale{
	nodes:       512,
	converge:    150 * time.Second,
	msgs:        300,
	rate:        20,
	payload:     1024,
	streamDrain: 10 * time.Second,
	repairDrain: 40 * time.Second,
	killFrac:    0.20,
	iterSeconds: 10,
}

// liveScale sizes a live-TCP workload.
type liveScale struct {
	nodes         int
	publishers    []int // nodes the generator publishes through, round-robin
	minDegree     int   // convergence: every node has at least this many neighbours and a parent
	payload       int
	coopThreshold int
	queueCritical int           // TCPOptions.QueueCritical, frames per peer; 0 keeps the default (256)
	queueRepair   int           // TCPOptions.QueueRepair; 0 keeps the default (128)
	boots         int           // clusters booted per run; setup_s is the median boot
	clusters      int           // the last clusters of them are measured, the others only booted
	convergeMax   time.Duration // a boot that has not converged by then fails the run
	reclaimAfter  time.Duration
	heartbeat     time.Duration
	warmup        time.Duration // at openRate, before any window; must outlast reclaimAfter
	openRate      float64       // Poisson arrivals per second
	openWindows   int           // per measured cluster
	openShare     float64       // share of -seconds spent in the open loops
	closedW       int           // messages outstanding in the closed loop
	closedShare   float64
	closedDiscard float64       // leading share of the closed loop not counted
	closedGroups  int           // equal-count groups one cluster's closed-loop completions are cut into
	drainMax      time.Duration // wait for stragglers after a phase
	maxMsgs       int           // capacity of one cluster's message table
}

var fullLiveSmall = liveScale{
	nodes:         16,
	publishers:    []int{1, 5, 9, 13},
	minDegree:     5,
	payload:       64,
	coopThreshold: 0,
	boots:         5,
	clusters:      3,
	convergeMax:   20 * time.Second,
	reclaimAfter:  2 * time.Second,
	heartbeat:     250 * time.Millisecond,
	warmup:        2500 * time.Millisecond,
	openRate:      1500,
	openWindows:   3,
	openShare:     0.6,
	closedW:       32,
	closedShare:   0.4,
	closedDiscard: 0.125,
	closedGroups:  5,
	drainMax:      3 * time.Second,
	maxMsgs:       1 << 17,
}

var fullLiveBulk = liveScale{
	nodes:         16,
	publishers:    []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
	minDegree:     5,
	payload:       64 << 10,
	coopThreshold: 8 << 10,
	queueCritical: 2048,
	queueRepair:   1024,
	boots:         5,
	clusters:      3,
	convergeMax:   20 * time.Second,
	reclaimAfter:  2 * time.Second,
	heartbeat:     250 * time.Millisecond,
	warmup:        2500 * time.Millisecond,
	openRate:      30,
	openWindows:   3,
	openShare:     0.6,
	closedW:       48,
	closedShare:   0.4,
	closedDiscard: 0.125,
	closedGroups:  5,
	drainMax:      5 * time.Second,
	maxMsgs:       1 << 14,
}

// Coopcast geometry of live-bulk.
const (
	fecSymbolSize = 1024
	fecRepair     = 2
	storeMaxBytes = 8 << 20
)

// workload names, in BENCHMARK.json order.
var workloadNames = []string{"sim-seq", "sim-sharded", "live-small", "live-bulk"}

type metricDef struct {
	name, unit string
}

// endToEnd lists the gated metrics; every workload reports every one of
// them (the acceptance driver requires it), so each has one meaning per
// substrate — see bench/README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"deliver_p90_ms", "ms"},
}

// perLayer lists the ungated layer metrics. A layer that does no work in a
// workload reports 0 there, which is the "no change expected" half of each
// prediction in bench/README.md.
var perLayer = []metricDef{
	// demoted from end-to-end (bench/README.md says why); names kept
	{"sustained_msgs_per_s", "msg/s"},
	{"cpu_ms_per_msg", "ms"},
	{"deliver_p50_ms", "ms"},
	{"wall_s", "s"},
	{"virt_deliver_p50_ms", "ms"},
	{"virt_deliver_p99_ms", "ms"},
	{"failed_share", "ratio"},
	// sim (probes)
	{"sim.schedule_fire_ns", "ns"},
	{"sim.cancel_ns", "ns"},
	{"sim.allocs_per_event", "count"},
	{"sim.shard_window_us", "us"},
	// netsim (workload, trace)
	{"netsim.build_ms", "ms"},
	{"netsim.converge_ns_per_event", "ns"},
	{"netsim.stream_ns_per_event", "ns"},
	{"netsim.repair_ns_per_event", "ns"},
	{"netsim.stream_wall_s", "s"},
	{"netsim.repair_wall_s", "s"},
	{"netsim.events", "count"},
	{"netsim.events_per_s", "1/s"},
	{"netsim.allocs_per_event", "count"},
	{"netsim.alloc_bytes_per_event", "B"},
	{"netsim.gc_cpu_share", "ratio"},
	{"netsim.heap_inuse_mb", "MiB"},
	{"netsim.effective_shards", "count"},
	{"netsim.cpu_cores_used", "cores"},
	{"netsim.shard_speedup", "ratio"},
	{"netsim.result_digest", "count"},
	{"netsim.sends_total", "count"},
	{"netsim.wire_bytes_total", "B"},
	{"netsim.sends_per_event", "ratio"},
	// core (probes, workload)
	{"core.tree_forward_ns", "ns"},
	{"core.dup_payload_ns", "ns"},
	{"core.handle_gossip_hit_ns", "ns"},
	{"core.publish_ns", "ns"},
	{"core.allocs_per_forward", "count"},
	{"core.gossip_round_ns", "ns"},
	{"core.maintain_tick_ns", "ns"},
	{"core.handle_gossip_miss_ns", "ns"},
	{"core.pull_serve_ns", "ns"},
	{"core.coopcast_publish_us", "us"},
	{"core.symbol_recv_ns", "ns"},
	{"core.duplicate_share", "ratio"},
	{"core.pull_share", "ratio"},
	{"core.gossips_per_delivery", "ratio"},
	{"core.symbol_dup_share", "ratio"},
	{"core.fec_decode_failures", "count"},
	// store (probes, workload)
	{"store.put_ns", "ns"},
	{"store.has_ns", "ns"},
	{"store.get_ns", "ns"},
	{"store.gc_ns_per_record", "ns"},
	{"store.digest_ns", "ns"},
	{"store.put_symbol_ns", "ns"},
	{"store.evictions", "count"},
	{"store.live_bytes_mb", "MiB"},
	// wire (probes, trace)
	{"wire.encode_multicast64_ns", "ns"},
	{"wire.decode_multicast64_ns", "ns"},
	{"wire.encode_gossip32_ns", "ns"},
	{"wire.decode_gossip32_ns", "ns"},
	{"wire.encode_symbol1k_ns", "ns"},
	{"wire.decode_symbol1k_ns", "ns"},
	{"wire.allocs_per_decode", "count"},
	{"wire.bytes_per_payload_byte", "ratio"},
	{"wire.frames_per_delivery", "ratio"},
	// fec (probes)
	{"fec.encode_mib_per_s", "MiB/s"},
	{"fec.reconstruct_mib_per_s", "MiB/s"},
	{"fec.allocs_per_reconstruct", "count"},
	// live (probes, workload, trace)
	{"live.tcp_frames_per_s", "1/s"},
	{"live.tcp_rtt_p50_us", "us"},
	{"live.tcp_mib_per_s", "MiB/s"},
	{"live.publish_call_p50_us", "us"},
	{"live.hop_transit_p50_us", "us"},
	{"live.hop_transit_p99_us", "us"},
	{"live.node_proc_p50_us", "us"},
	{"live.hops_mean", "count"},
	{"live.deliver_p99_ms", "ms"},
	{"live.deliver_tail_ms", "ms"},
	{"live.gen_lateness_p99_ms", "ms"},
	{"live.converge_s", "s"},
	{"live.open_cpu_cores", "cores"},
	{"live.closed_cpu_cores", "cores"},
	{"live.mailbox_shed_total", "count"},
	{"live.tcp_frames_dropped_total", "count"},
	{"live.tcp_queue_overflows_total", "count"},
	{"live.publish_rejected_total", "count"},
	{"live.overload_transitions_total", "count"},
	{"live.gc_pause_ms", "ms"},
	{"live.heap_inuse_mb", "MiB"},
	{"live.goroutines", "count"},
	{"live.trace_overhead_pct", "%"},
	// obs, latency (probes)
	{"obs.counter_inc_ns", "ns"},
	{"obs.histogram_observe_ns", "ns"},
	{"latency.synthesize_ms", "ms"},
}
