package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"gocast"
)

func TestParseContact(t *testing.T) {
	e, err := parseContact("3@10.0.0.1:7946")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != 3 || e.Addr != "10.0.0.1:7946" {
		t.Fatalf("parsed %+v", e)
	}
}

func TestParseContactErrors(t *testing.T) {
	for _, in := range []string{"", "noat", "x@host:1", "@host:1", "4294967301@host:1", "-1@host:1", "2147483648@host:1"} {
		if _, err := parseContact(in); err == nil {
			t.Errorf("parseContact(%q) accepted malformed input", in)
		}
	}
}

func TestRunRejectsMissingMode(t *testing.T) {
	if err := run([]string{"-listen", "127.0.0.1:0"}); err == nil {
		t.Fatalf("run without -root or -join must fail")
	}
}

// TestRunRejectsOutOfRangeIDs pins that IDs and incarnations which would
// wrap in their int32/uint32 conversions are refused before anything
// starts, with an error naming the flag.
func TestRunRejectsOutOfRangeIDs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-id", "4294967301", "-root"}, "-id: 4294967301 out of range"},
		{[]string{"-id", "2147483648", "-root"}, "-id: 2147483648 out of range"},
		{[]string{"-id", "-1", "-root"}, "-id: -1 out of range"},
		{[]string{"-id", "1", "-incarnation", "4294967296", "-root"}, "-incarnation: 4294967296 out of range"},
		{[]string{"-id", "1", "-join", "4294967301@127.0.0.1:1"}, `contact "4294967301@127.0.0.1:1": bad id: 4294967301 out of range`},
		{[]string{"-id", "1", "-join", "-1@127.0.0.1:1"}, `contact "-1@127.0.0.1:1": bad id: -1 out of range`},
	} {
		err := run(append([]string{"-listen", "127.0.0.1:0"}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
	// The largest values still fit and start a node.
	if err := run([]string{"-listen", "127.0.0.1:0", "-id", "2147483647", "-incarnation", "4294967295", "-root"}); err != nil {
		t.Errorf("run with the largest -id and -incarnation: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatalf("bad flag accepted")
	}
}

// TestAdminMetricsScrape pins the acceptance criterion: a node started
// with -admin-addr serves valid Prometheus metrics including the core
// latency histogram, gossip counters, sync counters, store gauges, and the
// transport redial counter (present at zero before any redial happened).
func TestAdminMetricsScrape(t *testing.T) {
	a, err := newApp([]string{
		"-id", "0", "-listen", "127.0.0.1:0", "-root", "-quiet",
		"-admin-addr", "127.0.0.1:0",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()
	if a.admin == nil {
		t.Fatalf("admin endpoint not started")
	}
	var out strings.Builder
	a.handleLine("hello metrics", &out)
	if !strings.HasPrefix(out.String(), "sent ") {
		t.Fatalf("multicast via stdin line failed: %q", out.String())
	}

	resp, err := http.Get("http://" + a.admin.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != gocast.PrometheusContentType {
		t.Errorf("Content-Type = %q, want %q", ct, gocast.PrometheusContentType)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE gocast_core_tree_forward_latency_seconds histogram",
		`gocast_core_tree_forward_latency_seconds_bucket{le="+Inf"}`,
		"# TYPE gocast_core_gossips_sent_total counter",
		"gocast_sync_items_sent_total",
		"gocast_sync_items_recv_total",
		"# TYPE gocast_store_live_bytes gauge",
		"gocast_transport_tcp_redials_total 0",
		"gocast_core_injected_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /healthz: a lone root node is healthy.
	resp2, err := http.Get("http://" + a.admin.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", resp2.StatusCode)
	}

	// /statusz carries the node's identity.
	resp3, err := http.Get("http://" + a.admin.Addr() + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if !strings.Contains(string(sb), `"root": 0`) {
		t.Errorf("/statusz missing root field:\n%s", sb)
	}
}

// TestTraceCommand exercises the /trace stdin command end to end: the
// multicast above it must appear as an inject event.
func TestTraceCommand(t *testing.T) {
	a, err := newApp([]string{"-id", "0", "-listen", "127.0.0.1:0", "-root", "-quiet"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()

	var out strings.Builder
	a.handleLine("traced payload", &out)
	out.Reset()
	a.handleLine("/trace", &out)
	if !strings.Contains(out.String(), "inject") || !strings.Contains(out.String(), "events shown") {
		t.Errorf("/trace output missing inject event:\n%s", out.String())
	}
	out.Reset()
	a.handleLine("/trace bogus", &out)
	if !strings.Contains(out.String(), "usage:") {
		t.Errorf("/trace with bad arg: %q", out.String())
	}
	out.Reset()
	a.handleLine("/nonsense", &out)
	if !strings.Contains(out.String(), "unknown command") {
		t.Errorf("unknown command not reported: %q", out.String())
	}
	out.Reset()
	a.handleLine("/status", &out)
	if !strings.Contains(out.String(), "degree=") || !strings.Contains(out.String(), "root=0") {
		t.Errorf("/status output: %q", out.String())
	}
	out.Reset()
	a.handleLine("/stats", &out)
	if !strings.Contains(out.String(), "injected=1") || !strings.Contains(out.String(), "live_messages=") {
		t.Errorf("/stats output: %q", out.String())
	}
}
