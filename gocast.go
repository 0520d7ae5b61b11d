// Package gocast implements GoCast (Tang, Chang, Ward — DSN 2005):
// gossip-enhanced overlay multicast for fast and dependable group
// communication.
//
// GoCast organizes nodes into a proximity-aware overlay with tightly
// controlled node degrees (by default one random neighbor for long-range
// connectivity plus five nearby neighbors for efficiency). Multicast
// messages propagate rapidly through a low-latency tree embedded in the
// overlay, while in the background nodes gossip message summaries with
// their overlay neighbors and pull anything the tree failed to deliver —
// combining the speed of tree multicast with the resilience of gossip.
//
// # Live groups
//
// A real-time node is created with NewNode over a Transport (TCP/UDP via
// NewTCPTransport, or an in-memory fabric via NewMemNetwork). The first
// node calls BecomeRoot; everyone else Joins through any existing member:
//
//	tr, _ := gocast.NewTCPTransport(1, "0.0.0.0:7946")
//	n := gocast.NewNode(gocast.NodeOptions{
//		ID:        1,
//		Config:    gocast.DefaultConfig(),
//		Transport: tr,
//		OnDeliver: func(id gocast.MessageID, payload []byte, age time.Duration) {
//			fmt.Printf("got %s: %s\n", id, payload)
//		},
//	})
//	n.Join(gocast.Entry{ID: 0, Addr: "seed.example:7946"})
//	n.Multicast([]byte("hello group"))
//
// NewCluster boots a whole in-process group in one call — see
// examples/quickstart.
//
// # Simulation
//
// The same protocol code runs on a deterministic discrete-event simulator
// over a synthetic wide-area latency model, which is how the paper's
// evaluation is reproduced (cmd/gocast-experiments). RunSimulation exposes
// a one-call version for exploring configurations:
//
//	res := gocast.RunSimulation(gocast.SimOptions{Nodes: 1024, Messages: 1000})
//	fmt.Println(res.P99, res.DeliveryRatio)
package gocast

import (
	"time"

	"gocast/internal/churn"
	"gocast/internal/core"
	"gocast/internal/fault"
	"gocast/internal/live"
	"gocast/internal/netsim"
	"gocast/internal/obs"
	"gocast/internal/scenario"
)

// Re-exported protocol types. The aliases keep the public API in one
// importable package while the implementation lives in internal packages.
type (
	// NodeID identifies a node in the group.
	NodeID = core.NodeID
	// MessageID identifies a multicast message (source node + sequence).
	MessageID = core.MessageID
	// Entry is a contact record: node ID, transport address, and an
	// optional landmark vector for latency estimation.
	Entry = core.Entry
	// Config holds the protocol parameters (Section 2 of the paper).
	Config = core.Config
	// Counters is a snapshot of a node's protocol activity.
	Counters = core.Counters
	// NeighborInfo describes one overlay link.
	NeighborInfo = core.NeighborInfo
	// LinkKind distinguishes random from nearby overlay links.
	LinkKind = core.LinkKind
	// DeliverFunc receives each multicast exactly once.
	DeliverFunc = core.DeliverFunc

	// Node is a live (real-time) GoCast participant.
	Node = live.Node
	// NodeOptions configures a live node.
	NodeOptions = live.NodeOptions
	// Transport moves protocol messages for live nodes.
	Transport = live.Transport
	// TCPTransport is the TCP+UDP transport with backoff redial, write
	// deadlines, and idle reaping.
	TCPTransport = live.TCPTransport
	// TCPOptions tunes the TCP transport's resilience behavior.
	TCPOptions = live.TCPOptions
	// MemNetwork is an in-memory transport fabric for in-process groups.
	MemNetwork = live.MemNetwork
	// FaultSpec is the active link-fault state: partitions, loss, extra
	// delay and jitter, and bandwidth-capped links over node IDs. The
	// simulator runs the same model.
	FaultSpec = fault.Spec
	// LinkFault shapes traffic between two ranges of node IDs.
	LinkFault = fault.Link
	// NodeRange selects node IDs [Lo, Hi); the zero value matches all.
	NodeRange = fault.Range
	// FaultController applies one FaultSpec consistently across a group
	// of wrapped transports.
	FaultController = live.FaultController
	// FaultTransport applies a FaultController's verdicts on top of any
	// Transport.
	FaultTransport = live.FaultTransport
	// Cluster is an in-process group of live nodes.
	Cluster = live.Cluster
	// ClusterOptions configures an in-process cluster.
	ClusterOptions = live.ClusterOptions

	// Obituary announces a dead (id, incarnation) pair; obituaries ride on
	// gossip so departures quarantine quickly group-wide.
	Obituary = core.Obituary
	// ChurnPlan declares seeded Poisson join/leave/crash/restart workloads.
	ChurnPlan = churn.Plan
	// ChurnEvent is one scheduled churn action.
	ChurnEvent = churn.Event
	// ChurnKind enumerates churn event types.
	ChurnKind = churn.Kind
	// ChurnOptions binds a ChurnPlan to an in-process cluster.
	ChurnOptions = churn.Options
	// ChurnStats counts what a churn run actually did.
	ChurnStats = churn.Stats

	// Registry is a lock-cheap metrics registry (counters, gauges, latency
	// histograms) with Prometheus text exposition; every live Node carries
	// one, and NodeOptions.Registry shares an external one.
	Registry = obs.Registry
	// MetricSnapshot is one registry family's point-in-time state.
	MetricSnapshot = obs.MetricSnapshot
	// AdminServer is a running HTTP admin endpoint (/metrics, /statusz,
	// /healthz, /tracez, /debug/pprof).
	AdminServer = obs.AdminServer
	// AdminOptions wires a node's observability surfaces into ServeAdmin.
	AdminOptions = obs.AdminOptions
	// StatusSnapshot is a live node's point-in-time status (/statusz body).
	StatusSnapshot = live.StatusSnapshot

	// Class is a message's admission class under overload (Critical,
	// Repair, Background); queues shed Background first.
	Class = core.Class
	// OverloadLevel is a node's degradation state (Healthy, Degraded,
	// Shedding), driven by queue occupancy and budget pressure.
	OverloadLevel = core.OverloadLevel
	// OverloadOptions tunes a live node's overload protection: mailbox
	// lane capacities, memory budget, and the degradation state machine's
	// thresholds.
	OverloadOptions = live.OverloadOptions
	// QueuePressure is a transport's send-queue occupancy summary, feeding
	// the overload governor.
	QueuePressure = live.QueuePressure
	// AdmissionCaps bounds per-class in-flight traffic in simulation,
	// mirroring the live admission model.
	AdmissionCaps = netsim.AdmissionCaps
)

// Churn event kinds.
const (
	ChurnJoin    = churn.Join
	ChurnLeave   = churn.Leave
	ChurnCrash   = churn.Crash
	ChurnRestart = churn.Restart
)

// Link kinds.
const (
	Random = core.Random
	Nearby = core.Nearby
)

// None is the absent-node sentinel.
const None = core.None

// Message admission classes.
const (
	ClassCritical   = core.ClassCritical
	ClassRepair     = core.ClassRepair
	ClassBackground = core.ClassBackground
)

// Overload degradation levels.
const (
	OverloadHealthy  = core.OverloadHealthy
	OverloadDegraded = core.OverloadDegraded
	OverloadShedding = core.OverloadShedding
)

// DefaultConfig returns the paper's recommended parameters (C_rand=1,
// C_near=5, 0.1 s gossip and maintenance periods, 15 s heartbeats).
func DefaultConfig() Config { return core.DefaultConfig() }

// ProximityOverlayConfig returns the gossip-only variant over the
// proximity-aware overlay (the paper's "proximity overlay" baseline).
func ProximityOverlayConfig() Config { return core.ProximityOverlayConfig() }

// RandomOverlayConfig returns the gossip-only variant over a purely
// random overlay (the paper's "random overlay" baseline).
func RandomOverlayConfig() Config { return core.RandomOverlayConfig() }

// FastConfig returns protocol timing scaled for in-process clusters.
func FastConfig() Config { return live.FastConfig() }

// NewNode starts a live GoCast node.
func NewNode(opts NodeOptions) *Node { return live.NewNode(opts) }

// NewRegistry returns an empty metrics registry, for sharing between a
// node and process-level metrics via NodeOptions.Registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// ServeAdmin starts the HTTP admin endpoint (Prometheus /metrics, JSON
// /statusz, /healthz, /tracez, net/http/pprof) on addr in a background
// goroutine.
func ServeAdmin(addr string, o AdminOptions) (*AdminServer, error) { return obs.ServeAdmin(addr, o) }

// PrometheusContentType is the Content-Type of /metrics responses.
const PrometheusContentType = obs.PrometheusContentType

// ErrStopped reports an API call against a live node after Close or Kill.
var ErrStopped = live.ErrStopped

// ErrOverloaded reports a Publish rejected because the node is Shedding;
// retry after backoff, or watch Node.Overload for recovery.
var ErrOverloaded = live.ErrOverloaded

// NewTCPTransport listens for the group's TCP and UDP traffic with
// default resilience options.
func NewTCPTransport(id NodeID, listenAddr string) (*TCPTransport, error) {
	return live.NewTCPTransport(id, listenAddr)
}

// NewTCPTransportWithOptions listens with explicit reconnect/deadline
// tuning.
func NewTCPTransportWithOptions(id NodeID, listenAddr string, opts TCPOptions) (*TCPTransport, error) {
	return live.NewTCPTransportWithOptions(id, listenAddr, opts)
}

// NewFaultController starts a fault-injection controller with no fault
// installed; wrap every transport of a test group through it so pairwise
// rules (partitions) are consistent, then install faults with Set.
func NewFaultController() *FaultController {
	return live.NewFaultController()
}

// NewMemNetwork creates an in-memory transport fabric with the given base
// latency.
func NewMemNetwork(base time.Duration, seed int64) *MemNetwork {
	return live.NewMemNetwork(base, seed)
}

// NewCluster boots an in-process group of live nodes.
func NewCluster(opts ClusterOptions) *Cluster { return live.NewCluster(opts) }

// Chaos-scenario engine (internal/scenario): declarative fault timelines
// with continuously checked invariants, runnable on the deterministic
// simulator or a live in-process cluster. See cmd/gocast-scenarios.
type (
	// Scenario declares node groups, a fault-phase timeline, and the
	// invariants to hold through it.
	Scenario = scenario.Scenario
	// ScenarioOptions selects the substrate, seed, and observability
	// wiring for one run.
	ScenarioOptions = scenario.Options
	// ScenarioReport is a completed run's verdict (deterministic on the
	// netsim substrate).
	ScenarioReport = scenario.Report
)

// ScenarioLibrary returns the committed chaos scenarios (also stored as
// JSON under scenarios/).
func ScenarioLibrary() []*Scenario { return scenario.Library() }

// RunScenario executes a scenario and returns its invariant report.
func RunScenario(s *Scenario, opts ScenarioOptions) (*ScenarioReport, error) {
	return scenario.Run(s, opts)
}

// LoadScenario reads and validates a scenario JSON file.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// SimOptions configures a one-call simulation run.
type SimOptions struct {
	// Nodes is the system size (default 256).
	Nodes int
	// Config is the protocol configuration (default DefaultConfig).
	Config *Config
	// Warmup is the adaptation period before messages (default 150 s of
	// simulated time).
	Warmup time.Duration
	// Messages is how many multicasts to measure (default 100).
	Messages int
	// Rate is the injection rate per second (default 100).
	Rate float64
	// FailFraction kills this fraction of nodes (without repair) right
	// before messages are injected.
	FailFraction float64
	// Seed drives all randomness (default 1).
	Seed int64
}

// SimResult summarizes a simulation run.
type SimResult struct {
	// DeliveryRatio is delivered / expected over (message, live node)
	// pairs.
	DeliveryRatio float64
	// P50, P90, P99, Max summarize the delivery delay distribution.
	P50, P90, P99, Max time.Duration
	// MeanDegree is the average overlay degree after adaptation.
	MeanDegree float64
	// AvgOverlayLatency and AvgTreeLatency are mean one-way link
	// latencies after adaptation.
	AvgOverlayLatency, AvgTreeLatency time.Duration
	// LargestComponentRatio is the connectivity metric q.
	LargestComponentRatio float64
	// Counters aggregates protocol activity over all nodes.
	Counters Counters
}

// RunSimulation runs the GoCast protocol on the discrete-event simulator
// over a synthetic King-like latency model and reports delivery and
// overlay quality statistics. Runs are deterministic per seed.
func RunSimulation(opts SimOptions) SimResult {
	if opts.Nodes <= 0 {
		opts.Nodes = 256
	}
	cfg := core.DefaultConfig()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	if opts.Warmup <= 0 {
		opts.Warmup = 150 * time.Second
	}
	if opts.Messages <= 0 {
		opts.Messages = 100
	}
	if opts.Rate <= 0 {
		opts.Rate = 100
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	c := netsim.New(netsim.Options{Nodes: opts.Nodes, Seed: opts.Seed, Config: cfg})
	c.BootstrapMembership(cfg.MemberViewSize / 2)
	c.WireRandom((cfg.TargetDegree() + 1) / 2)
	c.Start(0)
	c.Run(opts.Warmup)

	res := SimResult{
		MeanDegree:            c.DegreeHistogram().Mean(),
		AvgOverlayLatency:     c.AvgOverlayLinkLatency(),
		AvgTreeLatency:        c.AvgTreeLinkLatency(),
		LargestComponentRatio: c.LargestComponentRatio(),
	}
	if opts.FailFraction > 0 {
		c.SetMaintenance(false)
		c.SetDetection(false)
		c.KillFraction(opts.FailFraction)
	}
	c.InjectStream(opts.Messages, opts.Rate, nil)
	c.Run(time.Duration(float64(opts.Messages)/opts.Rate*float64(time.Second)) + 60*time.Second)
	rec := c.Delays()
	cdf := rec.CDF()
	res.DeliveryRatio = rec.DeliveryRatio()
	res.P50 = cdf.Quantile(0.50)
	res.P90 = cdf.Quantile(0.90)
	res.P99 = cdf.Quantile(0.99)
	res.Max = cdf.Max()
	res.Counters = c.SumCounters()
	return res
}
