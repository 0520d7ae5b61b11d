package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"gocast/internal/dtrace"
)

// AdminOptions wires a node's observability surfaces into the HTTP admin
// endpoint. Every field is optional; endpoints without a backing surface
// answer 404 (trace) or a trivial response (status, health).
type AdminOptions struct {
	// Registry backs /metrics (Prometheus text format) and feeds the
	// metrics portion of /statusz.
	Registry *Registry
	// Trace backs /tracez and renders recent protocol events, one
	// dtrace record per line.
	Trace *dtrace.Buffer
	// Spans backs /spans (dissemination trace spans as JSON, consumed by
	// gocast-trace and dtrace.Collect) and /tracez?msg=src/seq (the
	// node-local stitched view of one sampled message).
	Spans func() []dtrace.Span
	// Status returns the /statusz payload (any JSON-marshalable value):
	// degrees, parent, root, incarnation, store occupancy.
	Status func() any
	// Health reports nil when the node is healthy; the error text becomes
	// the /healthz failure body (HTTP 503).
	Health func() error
}

// NewAdminHandler builds the admin mux:
//
//	/metrics  Prometheus text exposition
//	/statusz  JSON node status snapshot
//	/healthz  200 "ok" or 503 with the failure reason
//	/tracez   recent event-ring records as text (?n=N tail, ?kind=K filter
//	          by dtrace kind name, e.g. tree-deliver, link-up, parent);
//	          with ?msg=src/seq, this node's stitched dissemination trace
//	          of that sampled message instead
//	/spans    dissemination trace spans as a JSON array
//	/debug/pprof/...  net/http/pprof
func NewAdminHandler(o AdminOptions) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if o.Registry == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", PrometheusContentType)
		_ = o.Registry.WritePrometheus(w)
	})

	mux.HandleFunc("/statusz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		payload := map[string]any{}
		if o.Status != nil {
			payload["node"] = o.Status()
		}
		if o.Registry != nil {
			payload["metrics"] = o.Registry.Snapshot()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(payload)
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		if o.Health != nil {
			if err := o.Health(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("/spans", func(w http.ResponseWriter, req *http.Request) {
		if o.Spans == nil {
			http.NotFound(w, req)
			return
		}
		spans := o.Spans()
		if spans == nil {
			spans = []dtrace.Span{}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(spans)
	})

	mux.HandleFunc("/tracez", func(w http.ResponseWriter, req *http.Request) {
		if s := req.URL.Query().Get("msg"); s != "" {
			serveMsgTrace(w, req, o, s)
			return
		}
		if o.Trace == nil {
			http.NotFound(w, req)
			return
		}
		events := o.Trace.Snapshot()
		if s := req.URL.Query().Get("kind"); s != "" {
			var keep []dtrace.Span
			for _, e := range events {
				if e.Kind.String() == s {
					keep = append(keep, e)
				}
			}
			events = keep
		}
		n := len(events)
		if s := req.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v >= 0 && v < n {
				n = v
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, e := range events[len(events)-n:] {
			fmt.Fprintln(w, e)
		}
		fmt.Fprintf(w, "-- %d/%d events shown (%d evicted)\n", n, len(events), o.Trace.Dropped())
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// serveMsgTrace answers /tracez?msg=src/seq: the dissemination trace of
// one sampled message stitched from this node's own spans. A single node
// only holds its local view (use gocast-trace to stitch across the whole
// group), but even that distinguishes how the message reached this node.
func serveMsgTrace(w http.ResponseWriter, req *http.Request, o AdminOptions, msg string) {
	if o.Spans == nil {
		http.NotFound(w, req)
		return
	}
	src, seq, err := dtrace.ParseMsg(msg)
	if err != nil {
		http.Error(w, "bad msg (want src/seq): "+err.Error(), http.StatusBadRequest)
		return
	}
	traces := dtrace.Stitch(o.Spans())
	tr := dtrace.Find(traces, src, seq)
	if tr == nil {
		http.Error(w, fmt.Sprintf("no spans recorded for message %s (is sampling on? see Config.TraceSampleEvery)", msg), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, tr.Render())
}

// AdminServer is a running admin HTTP endpoint.
type AdminServer struct {
	srv *http.Server
	ln  net.Listener
}

// ServeAdmin listens on addr (e.g. "127.0.0.1:0") and serves the admin
// endpoints in a background goroutine until Close.
func ServeAdmin(addr string, o AdminOptions) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           NewAdminHandler(o),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return &AdminServer{srv: srv, ln: ln}, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *AdminServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the listener.
func (s *AdminServer) Close() error { return s.srv.Close() }
