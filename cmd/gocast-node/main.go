// Command gocast-node runs one live GoCast node over TCP/UDP. The first
// node of a group runs with -root; every other node points -join at any
// existing member. Lines read from stdin are multicast to the group;
// received messages are printed to stdout. Lines starting with "/" are
// commands (/status, /stats, /trace [N]) answered locally.
//
//	# terminal 1
//	gocast-node -id 0 -listen 127.0.0.1:7946 -root -admin-addr 127.0.0.1:9094
//	# terminal 2
//	gocast-node -id 1 -listen 127.0.0.1:7947 -join 0@127.0.0.1:7946
//
// With -admin-addr set, the node also serves an HTTP admin endpoint:
// Prometheus metrics on /metrics, a JSON status snapshot on /statusz,
// liveness on /healthz, recent protocol events on /tracez, and
// net/http/pprof under /debug/pprof/.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gocast"
)

func main() {
	a, err := newApp(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gocast-node:", err)
		os.Exit(1)
	}
	defer a.close()

	go func() {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			a.handleLine(sc.Text(), os.Stdout)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nleaving group")
}

// run builds the node but exits immediately (flag/bootstrap validation
// path, kept for tests; the interactive loop lives in main).
func run(args []string) error {
	a, err := newApp(args, io.Discard)
	if err != nil {
		return err
	}
	a.close()
	return nil
}

// app is one running gocast-node instance: the node, its transport, and
// the optional admin endpoint.
type app struct {
	node  *gocast.Node
	tr    *gocast.TCPTransport
	admin *gocast.AdminServer
	quiet bool
}

// newApp parses flags, starts the transport, node, and (optionally) the
// admin endpoint, and performs the -root/-join bootstrap. Startup banners
// go to w.
func newApp(args []string, w io.Writer) (*app, error) {
	fs := flag.NewFlagSet("gocast-node", flag.ContinueOnError)
	var (
		id        = fs.Int("id", 0, "this node's unique ID")
		listen    = fs.String("listen", "127.0.0.1:7946", "TCP/UDP listen address")
		join      = fs.String("join", "", "contact as id@host:port (empty for the first node)")
		root      = fs.Bool("root", false, "become the initial tree root")
		quiet     = fs.Bool("quiet", false, "do not echo received messages")
		inc       = fs.Uint("incarnation", 0, "incarnation number; a process rejoining under an ID it used before must pass a higher value than its previous life")
		adminAddr = fs.String("admin-addr", "", "HTTP admin listen address serving /metrics, /statusz, /healthz, /tracez, /debug/pprof (empty disables)")

		dialTimeout    = fs.Duration("dial-timeout", 0, "per-connection dial timeout (0 = default 5s)")
		writeTimeout   = fs.Duration("write-timeout", 0, "per-frame write deadline (0 = default 10s)")
		redialAttempts = fs.Int("redial-attempts", 0, "failed dials tolerated before a peer is reported down (0 = default 3, negative disables redial)")
		redialBackoff  = fs.Duration("redial-backoff", 0, "initial redial backoff, doubled per failure with jitter (0 = default 100ms)")
		redialMax      = fs.Duration("redial-backoff-max", 0, "redial backoff cap (0 = default 3s)")
		idleTimeout    = fs.Duration("idle-timeout", 0, "reap outbound connections idle this long (0 = default 5m, negative disables)")

		memBudget = fs.Int64("mem-budget", 0, "overload memory budget in bytes over store plus queued frames; the node degrades near it and sheds publishes at it (0 = unlimited)")

		storeMaxMsgs  = fs.Int("store-max-msgs", 0, "message store capacity in messages (0 = default 16384)")
		storeMaxBytes = fs.Int64("store-max-bytes", 0, "message store capacity in payload bytes (0 = default 64 MiB)")
		syncInterval  = fs.Duration("sync-interval", 0, "period of anti-entropy digest sync with neighbors (0 = default 30s, negative disables)")
		syncBatch     = fs.Int("sync-batch-bytes", 0, "payload byte budget per sync reply batch (0 = default 256 KiB)")

		coopcastThreshold = fs.Int("coopcast-threshold", 0, "payloads at or above this many bytes disseminate as erasure-coded symbols striped down the tree and repaired via gossip pulls (0 disables, the default)")
		fecRepair         = fs.Int("fec-repair", 0, "repair symbols added per coopcast message (0 = default 2)")

		traceCap    = fs.Int("trace-capacity", 0, "protocol trace ring size in events (0 = default 1024, negative disables)")
		traceSample = fs.Int("trace-sample", 0, "record every Nth protocol event in the trace ring (0/1 = all)")

		spanSample = fs.Int("span-sample-every", 0, "dissemination tracing: locally injected multicasts whose sequence number is a multiple of N carry a sampled hop context and leave dtrace spans on every node they touch (0 disables, 1 traces every message)")
		spanCap    = fs.Int("span-capacity", 0, "dissemination trace span ring size (0 = default 4096, negative disables recording)")

		mutexFraction = fs.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction: sample 1/N of mutex contention events so /debug/pprof/mutex returns data (0 disables, the runtime default)")
		blockRate     = fs.Int("block-profile-rate", 0, "runtime.SetBlockProfileRate: sample blocking events of at least N ns so /debug/pprof/block returns data (0 disables, the runtime default)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg := gocast.DefaultConfig()
	cfg.StoreMaxMessages = *storeMaxMsgs
	cfg.StoreMaxBytes = *storeMaxBytes
	cfg.SyncInterval = *syncInterval
	cfg.SyncBatchBytes = *syncBatch
	cfg.CoopcastThreshold = *coopcastThreshold
	cfg.TraceSampleEvery = *spanSample
	if *fecRepair > 0 {
		cfg.FECRepair = *fecRepair
	}

	// Contention profiling is off by default (it costs a sampled global
	// counter per event); these flags turn it on so the pprof mutex and
	// block endpoints under -admin-addr return real samples.
	if *mutexFraction > 0 {
		runtime.SetMutexProfileFraction(*mutexFraction)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	tr, err := gocast.NewTCPTransportWithOptions(gocast.NodeID(*id), *listen, gocast.TCPOptions{
		DialTimeout:      *dialTimeout,
		WriteTimeout:     *writeTimeout,
		RedialAttempts:   *redialAttempts,
		RedialBackoff:    *redialBackoff,
		RedialBackoffMax: *redialMax,
		IdleTimeout:      *idleTimeout,
	})
	if err != nil {
		return nil, err
	}
	a := &app{tr: tr, quiet: *quiet}
	a.node = gocast.NewNode(gocast.NodeOptions{
		ID:            gocast.NodeID(*id),
		Config:        cfg,
		Transport:     tr,
		Seed:          time.Now().UnixNano(),
		Incarnation:   uint32(*inc),
		TraceCapacity: *traceCap,
		TraceSample:   *traceSample,
		SpanCapacity:  *spanCap,
		Overload:      gocast.OverloadOptions{MemBudget: *memBudget},
		OnDeliver: func(mid gocast.MessageID, payload []byte, age time.Duration) {
			if !*quiet {
				fmt.Printf("[%s age=%v] %s\n", mid, age.Round(time.Millisecond), payload)
			}
		},
	})
	fmt.Fprintf(w, "node %d listening on %s\n", *id, tr.Addr())

	if *adminAddr != "" {
		a.admin, err = gocast.ServeAdmin(*adminAddr, gocast.AdminOptions{
			Registry: a.node.Registry(),
			Trace:    a.node.Trace(),
			Spans:    a.node.Spans,
			Status:   func() any { return a.node.Status() },
			Health:   a.node.Health,
		})
		if err != nil {
			a.node.Close()
			return nil, err
		}
		fmt.Fprintf(w, "admin endpoint on http://%s/ (/metrics /statusz /healthz /tracez /spans /debug/pprof)\n", a.admin.Addr())
	}

	switch {
	case *root:
		a.node.BecomeRoot()
		a.node.SetLandmarks([]gocast.Entry{a.node.Entry()})
		fmt.Fprintln(w, "acting as initial tree root")
	case *join != "":
		contact, err := parseContact(*join)
		if err != nil {
			a.close()
			return nil, err
		}
		a.node.Join(contact)
		fmt.Fprintf(w, "joining via node %d at %s\n", contact.ID, contact.Addr)
	default:
		a.close()
		return nil, fmt.Errorf("need -root or -join")
	}
	return a, nil
}

// close stops the admin endpoint and leaves the group.
func (a *app) close() {
	if a.admin != nil {
		_ = a.admin.Close()
	}
	a.node.Close()
}

// handleLine processes one stdin line: a /command answered locally, or a
// payload multicast to the group.
func (a *app) handleLine(line string, w io.Writer) {
	line = strings.TrimSpace(line)
	if line == "" {
		return
	}
	switch {
	case line == "/status":
		st := a.node.Status()
		fmt.Fprintf(w, "degree=%d members=%d root=%d parent=%d store=%d msgs/%d bytes overload=%s\n",
			st.Degree, st.Members, st.Root, st.Parent, st.StoreMessages, st.StoreBytes, st.Overload)
	case line == "/stats":
		s := a.node.Stats()
		fmt.Fprintf(w, "delivered=%d injected=%d duplicates=%d pulls=%d peer_downs=%d\n",
			s.Delivered, s.Injected, s.Duplicates, s.PullsSent, s.PeerDowns)
		for _, group := range []map[string]int64{a.node.ChurnStats(), a.node.SyncStats(), a.node.StoreStats(), a.node.TransportStats()} {
			names := make([]string, 0, len(group))
			for name := range group {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(w, "%s=%d\n", name, group[name])
			}
		}
	case line == "/trace" || strings.HasPrefix(line, "/trace "):
		tb := a.node.Trace()
		if tb == nil {
			fmt.Fprintln(w, "tracing disabled (-trace-capacity < 0)")
			return
		}
		n := 20
		if rest := strings.TrimSpace(strings.TrimPrefix(line, "/trace")); rest != "" {
			v, err := strconv.Atoi(rest)
			if err != nil || v <= 0 {
				fmt.Fprintf(w, "usage: /trace [N]\n")
				return
			}
			n = v
		}
		events := tb.Snapshot()
		if len(events) > n {
			events = events[len(events)-n:]
		}
		for _, e := range events {
			fmt.Fprintln(w, e)
		}
		fmt.Fprintf(w, "-- %d events shown (%d evicted)\n", len(events), tb.Dropped())
	case strings.HasPrefix(line, "/"):
		fmt.Fprintf(w, "unknown command %q (have /status /stats /trace)\n", strings.Fields(line)[0])
	default:
		mid := a.node.Multicast([]byte(line))
		fmt.Fprintf(w, "sent %s\n", mid)
	}
}

func parseContact(s string) (gocast.Entry, error) {
	at := strings.IndexByte(s, '@')
	if at < 0 {
		return gocast.Entry{}, fmt.Errorf("contact %q: want id@host:port", s)
	}
	id, err := strconv.Atoi(s[:at])
	if err != nil {
		return gocast.Entry{}, fmt.Errorf("contact %q: bad id: %v", s, err)
	}
	return gocast.Entry{ID: gocast.NodeID(id), Addr: s[at+1:]}, nil
}
