package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"gocast/internal/dtrace"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("gocast_test_pings_total", "pings").Add(3)
	tb := dtrace.NewBuffer(16)
	tb.Record(dtrace.Span{Src: 2, Seq: 0, Node: 1, From: 2, Kind: dtrace.KindTreeDeliver, End: time.Second, Age: time.Second})
	tb.Record(dtrace.Span{Node: 1, From: -1, Kind: dtrace.KindParent, Aux: 0, End: 2 * time.Second})

	healthy := true
	srv, err := ServeAdmin("127.0.0.1:0", AdminOptions{
		Registry: reg,
		Trace:    tb,
		Status:   func() any { return map[string]int{"degree": 6} },
		Health: func() error {
			if !healthy {
				return errors.New("overlay disconnected")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "gocast_test_pings_total 3") {
		t.Errorf("/metrics = %d:\n%s", code, body)
	}

	code, body = get(t, base+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz = %d", code)
	}
	var status struct {
		Node    map[string]int `json:"node"`
		Metrics map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	if status.Node["degree"] != 6 {
		t.Errorf("statusz node = %v", status.Node)
	}
	if _, ok := status.Metrics["gocast_test_pings_total"]; !ok {
		t.Errorf("statusz metrics missing counter: %v", status.Metrics)
	}

	code, body = get(t, base+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthy /healthz = %d %q", code, body)
	}
	healthy = false
	code, body = get(t, base+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "overlay disconnected") {
		t.Errorf("unhealthy /healthz = %d %q", code, body)
	}

	code, body = get(t, base+"/tracez")
	if code != http.StatusOK || !strings.Contains(body, "tree-deliver") || !strings.Contains(body, "msg=2/0") || !strings.Contains(body, "parent") {
		t.Errorf("/tracez = %d:\n%s", code, body)
	}
	code, body = get(t, base+"/tracez?n=1")
	if strings.Contains(body, "deliver") || !strings.Contains(body, "parent") {
		t.Errorf("/tracez?n=1 should show only the newest event (%d):\n%s", code, body)
	}
	code, body = get(t, base+"/tracez?kind=tree-deliver")
	if !strings.Contains(body, "tree-deliver") || strings.Contains(body, "parent") {
		t.Errorf("/tracez?kind=tree-deliver filter broken (%d):\n%s", code, body)
	}

	code, _ = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Errorf("pprof cmdline = %d", code)
	}
}

// TestTracezFilterByKindAndTail checks that /tracez?kind= keeps exactly
// the records of one kind, that ?n= then tails the filtered records, and
// that the footer counts what the filter kept.
func TestTracezFilterByKindAndTail(t *testing.T) {
	tb := dtrace.NewBuffer(16)
	tb.Record(dtrace.Span{Src: 1, Seq: 1, Node: 1, From: 2, Kind: dtrace.KindTreeSend, End: time.Millisecond})
	tb.Record(dtrace.Span{Src: 1, Seq: 1, Node: 2, From: 1, Kind: dtrace.KindTreeDeliver, End: 2 * time.Millisecond})
	tb.Record(dtrace.Span{Node: 1, From: 3, Kind: dtrace.KindLinkUp, End: 3 * time.Millisecond})
	tb.Record(dtrace.Span{Src: 3, Seq: 4, Node: 3, From: 1, Kind: dtrace.KindTreeSend, End: 4 * time.Millisecond})
	srv, err := ServeAdmin("127.0.0.1:0", AdminOptions{Trace: tb})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	lines := func(body string) []string {
		return strings.Split(strings.TrimSpace(body), "\n")
	}
	_, body := get(t, base+"/tracez?kind=tree-send")
	if l := lines(body); len(l) != 3 || !strings.Contains(l[0], "msg=1/1") || !strings.Contains(l[1], "msg=3/4") ||
		!strings.Contains(l[2], "2/2 events shown") {
		t.Errorf("kind filter:\n%s", body)
	}
	_, body = get(t, base+"/tracez?kind=link-up")
	if l := lines(body); len(l) != 2 || !strings.Contains(l[0], "node=1 peer=3") || !strings.Contains(l[1], "1/1 events shown") {
		t.Errorf("single-kind filter:\n%s", body)
	}
	_, body = get(t, base+"/tracez?kind=tree-send&n=1")
	if l := lines(body); len(l) != 2 || !strings.Contains(l[0], "msg=3/4") || !strings.Contains(l[1], "1/2 events shown") {
		t.Errorf("kind filter with tail:\n%s", body)
	}
	_, body = get(t, base+"/tracez?kind=no-such-kind")
	if l := lines(body); len(l) != 1 || !strings.Contains(l[0], "0/0 events shown") {
		t.Errorf("unknown kind should match nothing:\n%s", body)
	}
}

// TestAdminSpansAndMsgTrace covers the dissemination-tracing endpoints:
// /spans serves the span buffer as JSON (the feed gocast-trace and
// dtrace.Collect stitch), and /tracez?msg=src/seq renders the node-local
// stitched tree of one message.
func TestAdminSpansAndMsgTrace(t *testing.T) {
	spans := []dtrace.Span{
		{Src: 1, Seq: 5, Node: 1, From: -1, Kind: dtrace.KindInject},
		{Src: 1, Seq: 5, Node: 2, From: 1, Kind: dtrace.KindTreeDeliver, Hops: 1,
			Start: 3 * time.Millisecond, End: 3 * time.Millisecond, Age: 3 * time.Millisecond},
	}
	srv, err := ServeAdmin("127.0.0.1:0", AdminOptions{
		Spans: func() []dtrace.Span { return spans },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/spans")
	if code != http.StatusOK {
		t.Fatalf("/spans = %d", code)
	}
	var got []dtrace.Span
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/spans not a span JSON array: %v\n%s", err, body)
	}
	if len(got) != 2 || got[0] != spans[0] || got[1] != spans[1] {
		t.Fatalf("/spans round trip = %+v, want %+v", got, spans)
	}

	// The same endpoint feeds dtrace.Collect.
	collected, err := dtrace.Collect([]string{srv.Addr()}, time.Second)
	if err != nil || len(collected) != 2 {
		t.Fatalf("Collect = %d spans, %v", len(collected), err)
	}

	code, body = get(t, base+"/tracez?msg=1/5")
	if code != http.StatusOK || !strings.Contains(body, "inject") || !strings.Contains(body, "node 2 tree") {
		t.Errorf("/tracez?msg=1/5 = %d:\n%s", code, body)
	}
	if code, _ = get(t, base+"/tracez?msg=9/9"); code != http.StatusNotFound {
		t.Errorf("/tracez?msg=9/9 (untraced) = %d, want 404", code)
	}
	if code, _ = get(t, base+"/tracez?msg=banana"); code != http.StatusBadRequest {
		t.Errorf("/tracez?msg=banana = %d, want 400", code)
	}
}

func TestAdminWithoutSurfaces(t *testing.T) {
	srv, err := ServeAdmin("127.0.0.1:0", AdminOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	if code, _ := get(t, base+"/metrics"); code != http.StatusNotFound {
		t.Errorf("/metrics without registry = %d, want 404", code)
	}
	if code, _ := get(t, base+"/tracez"); code != http.StatusNotFound {
		t.Errorf("/tracez without buffer = %d, want 404", code)
	}
	if code, _ := get(t, base+"/spans"); code != http.StatusNotFound {
		t.Errorf("/spans without source = %d, want 404", code)
	}
	if code, _ := get(t, base+"/tracez?msg=1/1"); code != http.StatusNotFound {
		t.Errorf("/tracez?msg without spans source = %d, want 404", code)
	}
	if code, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz without checker = %d, want 200", code)
	}
	code, body := get(t, base+"/statusz")
	if code != http.StatusOK {
		t.Errorf("/statusz = %d %s", code, body)
	}
}
