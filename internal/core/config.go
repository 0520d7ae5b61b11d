package core

import (
	"time"

	"gocast/internal/store"
)

// Config holds the GoCast protocol parameters. DefaultConfig returns the
// values recommended by the paper; the named constructors build the
// protocol variants evaluated in Section 3.
type Config struct {
	// CRand is the target number of random neighbors (paper: 1).
	CRand int
	// CNear is the target number of proximity-selected neighbors (paper: 5).
	CNear int
	// DegreeSlack is how far above target a node lets its degree grow
	// before refusing new links (paper: accept while D < C + 5).
	DegreeSlack int
	// C1Lower tunes condition C1: a nearby neighbor qualifies as
	// droppable only while D_near(U) >= C_near - C1Lower. The paper uses
	// 1 and discusses why 0 (requiring D_near(U) >= C_near) produces a
	// dramatically worse overlay.
	C1Lower int
	// DropTrigger is how far above C_near the nearby degree must grow
	// before excess links are dropped. The paper uses 2 (letting degrees
	// stabilize at C or C+1) and reports that the aggressive value 1
	// increases link changes by about a third.
	DropTrigger int
	// ReplaceRatio is condition C4: a candidate replaces the worst
	// neighbor only if RTT(X,Q) <= ReplaceRatio * RTT(X,U). The paper
	// uses 1/2 to avoid futile minor adaptations.
	ReplaceRatio float64

	// GossipPeriod is t: every t the node sends a summary to one overlay
	// neighbor chosen round-robin (paper: 0.1 s).
	GossipPeriod time.Duration
	// MaintainPeriod is r: the overlay adaptation cycle (paper: 0.1 s).
	MaintainPeriod time.Duration
	// HeartbeatPeriod is how often the root floods a tree wave (paper: 15 s).
	HeartbeatPeriod time.Duration
	// PullDelay is f: on learning a message ID from a gossip, wait until
	// the message is at least f old before pulling it, giving the tree
	// time to deliver it first (paper recommends the 90th-percentile tree
	// delay, 0.3 s for 1,024 nodes; 0 disables the optimization).
	PullDelay time.Duration
	// PullRetry is how long to wait for a pulled payload before asking
	// another holder.
	PullRetry time.Duration
	// ReclaimAfter is b: how long after gossiping a message ID to the last
	// neighbor the payload buffer is retained for pull requests
	// (paper: 2 min).
	ReclaimAfter time.Duration
	// StoreMaxMessages caps the message store's live payload count; the
	// oldest buffered payloads are evicted first (0 = store default,
	// negative = unlimited).
	StoreMaxMessages int
	// StoreMaxBytes caps the message store's total payload bytes
	// (0 = store default, negative = unlimited).
	StoreMaxBytes int64
	// SyncInterval is the background anti-entropy period: every interval
	// the node exchanges store digests with one overlay neighbor chosen
	// round-robin and recovers anything missing. 0 selects the default
	// (30 s); a negative value disables the sync protocol entirely,
	// including the rejoin-, heal-, and expired-pull-triggered rounds.
	SyncInterval time.Duration
	// SyncBatchBytes caps payload bytes per SyncReply, pacing recovery so
	// a rejoining node cannot be flooded (0 = default 256 KiB).
	SyncBatchBytes int
	// CoopcastThreshold enables erasure-coded bulk dissemination: payloads
	// of at least this many bytes are split into K source + R repair
	// symbols, striped across tree links, and repaired by per-symbol
	// gossip pulls instead of whole-payload transfers. 0 (the default)
	// disables coopcast entirely — every payload takes the classic
	// whole-message path.
	CoopcastThreshold int
	// FECSymbolSize is the target erasure-coding symbol size in bytes for
	// coopcast messages (0 = default 1024). The actual symbol size is
	// re-derived per message once K is fixed, and K+R is capped at the
	// coder's 256-symbol limit, so very large payloads get proportionally
	// larger symbols.
	FECSymbolSize int
	// FECRepair is R, the number of repair symbols added per coopcast
	// message; any K of the K+R symbols reconstruct the payload. 0 is
	// valid (no redundancy: every source symbol must eventually arrive);
	// negative values are normalized to the default 2.
	FECRepair int
	// DegradedIntervalScale is the factor by which an overloaded node
	// (OverloadDegraded or OverloadShedding, see SetOverload) stretches
	// its periodic gossip and sync intervals, reducing the traffic it
	// generates while it catches up (0 = default 4; 1 disables
	// stretching).
	DegradedIntervalScale int
	// NeighborTimeout declares an overlay neighbor dead when nothing has
	// been heard from it for this long (gossips act as keepalives).
	NeighborTimeout time.Duration
	// QuarantineWindow is how long an obituaried (dead or departed)
	// incarnation stays quarantined: entries at or below the obituary's
	// incarnation are not re-learned from in-flight gossip during the
	// window. A rejoin with a higher incarnation passes immediately.
	QuarantineWindow time.Duration
	// RootTimeout triggers root takeover when no new tree wave arrives for
	// this long.
	RootTimeout time.Duration

	// TraceSampleEvery enables causal dissemination tracing: every Nth
	// locally injected multicast (by sequence number) carries a sampled
	// hop context, and every node it touches reports dtrace spans for it
	// (marked Sampled) to its Observer. 0 — the default — disables
	// sampling entirely; the hot path then pays one branch per receive.
	// 1 traces every message.
	TraceSampleEvery int

	// EnableTree turns tree construction and tree forwarding on. The
	// "proximity overlay" and "random overlay" baselines disable it and
	// disseminate through neighbor gossip only.
	EnableTree bool

	// MemberViewSize bounds the partial membership view (paper cites
	// lpbcast-style partial views).
	MemberViewSize int
	// MemberSampleSize is how many membership entries piggyback on each
	// gossip.
	MemberSampleSize int
	// LandmarkCount is how many landmark nodes anchor triangulated latency
	// estimation.
	LandmarkCount int

	// NewStore, when non-nil, constructs the node's message store instead
	// of the default bounded in-memory implementation — the hook for
	// alternative backends and instrumented test doubles.
	NewStore func(store.Limits) store.MessageStore
}

// DefaultConfig returns the paper's recommended parameters for the complete
// GoCast protocol.
func DefaultConfig() Config {
	return Config{
		CRand:                 1,
		CNear:                 5,
		DegreeSlack:           5,
		C1Lower:               1,
		DropTrigger:           2,
		ReplaceRatio:          0.5,
		GossipPeriod:          100 * time.Millisecond,
		MaintainPeriod:        100 * time.Millisecond,
		HeartbeatPeriod:       15 * time.Second,
		PullDelay:             0,
		PullRetry:             time.Second,
		ReclaimAfter:          2 * time.Minute,
		SyncInterval:          30 * time.Second,
		SyncBatchBytes:        256 << 10,
		FECSymbolSize:         1024,
		FECRepair:             2,
		DegradedIntervalScale: 4,
		NeighborTimeout:       5 * time.Second,
		QuarantineWindow:      30 * time.Second,
		RootTimeout:           40 * time.Second,
		EnableTree:            true,
		MemberViewSize:        96,
		MemberSampleSize:      3,
		LandmarkCount:         8,
	}
}

// ProximityOverlayConfig returns the "proximity overlay" baseline: the
// GoCast overlay (1 random + 5 nearby neighbors) with the tree disabled;
// messages propagate only through gossips between overlay neighbors.
func ProximityOverlayConfig() Config {
	c := DefaultConfig()
	c.EnableTree = false
	return c
}

// RandomOverlayConfig returns the "random overlay" baseline: 6 random
// neighbors, no proximity awareness, tree disabled.
func RandomOverlayConfig() Config {
	c := DefaultConfig()
	c.EnableTree = false
	c.CRand = 6
	c.CNear = 0
	return c
}

// TargetDegree returns CRand + CNear.
func (c Config) TargetDegree() int { return c.CRand + c.CNear }

// validate normalizes pathological values so a zero-ish config cannot hang
// the node (tests construct partial configs).
func (c Config) validate() Config {
	if c.GossipPeriod <= 0 {
		c.GossipPeriod = 100 * time.Millisecond
	}
	if c.MaintainPeriod <= 0 {
		c.MaintainPeriod = 100 * time.Millisecond
	}
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = 15 * time.Second
	}
	if c.PullRetry <= 0 {
		c.PullRetry = time.Second
	}
	if c.ReclaimAfter <= 0 {
		c.ReclaimAfter = 2 * time.Minute
	}
	if c.SyncInterval == 0 {
		c.SyncInterval = 30 * time.Second
	}
	if c.SyncBatchBytes <= 0 {
		c.SyncBatchBytes = 256 << 10
	}
	if c.DegradedIntervalScale <= 0 {
		c.DegradedIntervalScale = 4
	}
	if c.CoopcastThreshold < 0 {
		c.CoopcastThreshold = 0
	}
	if c.TraceSampleEvery < 0 {
		c.TraceSampleEvery = 0
	}
	if c.FECSymbolSize <= 0 {
		c.FECSymbolSize = 1024
	}
	if c.FECRepair < 0 {
		c.FECRepair = 2
	}
	if c.NeighborTimeout <= 0 {
		c.NeighborTimeout = 5 * time.Second
	}
	if c.QuarantineWindow <= 0 {
		c.QuarantineWindow = 30 * time.Second
	}
	if c.RootTimeout <= 0 {
		c.RootTimeout = 40 * time.Second
	}
	if c.MemberViewSize <= 0 {
		c.MemberViewSize = 96
	}
	if c.MemberSampleSize < 0 {
		c.MemberSampleSize = 0
	}
	if c.DegreeSlack <= 0 {
		c.DegreeSlack = 5
	}
	if c.C1Lower < 0 {
		c.C1Lower = 0
	}
	if c.DropTrigger < 1 {
		c.DropTrigger = 2
	}
	if c.ReplaceRatio <= 0 || c.ReplaceRatio > 1 {
		c.ReplaceRatio = 0.5
	}
	if c.CRand < 0 {
		c.CRand = 0
	}
	if c.CNear < 0 {
		c.CNear = 0
	}
	if c.LandmarkCount < 0 {
		c.LandmarkCount = 0
	}
	return c
}
