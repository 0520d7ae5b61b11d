package live

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"gocast/internal/core"
	"gocast/internal/obs/promtest"
)

// TestCoopcastBulkDelivery drives the erasure-coded bulk path over the
// live substrate: a payload above CoopcastThreshold must leave the
// publisher as striped symbols, be reassembled by FEC decode on the
// receivers, and arrive byte-identical.
func TestCoopcastBulkDelivery(t *testing.T) {
	cfg := FastConfig()
	cfg.CoopcastThreshold = 1 << 10
	var mu sync.Mutex
	got := make(map[int][]byte)
	c := NewCluster(ClusterOptions{
		Nodes:  3,
		Config: cfg,
		Seed:   7,
		OnDeliver: func(node int, _ core.MessageID, payload []byte) {
			mu.Lock()
			got[node] = append([]byte(nil), payload...)
			mu.Unlock()
		},
	})
	defer c.Close()
	if !c.AwaitDegree(2, 10*time.Second) {
		t.Fatal("cluster never formed")
	}
	payload := make([]byte, 8<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if _, err := c.Node(0).Publish(payload); err != nil {
		t.Fatalf("publish: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 3 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 3; i++ {
		if !bytes.Equal(got[i], payload) {
			t.Fatalf("node %d: payload mismatch (got %d bytes)", i, len(got[i]))
		}
	}
	var sent, decodes int64
	for i := 0; i < 3; i++ {
		s := c.Node(i).Stats()
		sent += s.SymbolsSent
		decodes += s.FECDecodes
	}
	if sent == 0 {
		t.Fatal("no symbols sent: bulk payload took the whole-message path")
	}
	if decodes != 2 {
		t.Fatalf("FEC decodes = %d, want 2 (one per receiver)", decodes)
	}
	// The publisher is complete at once and says so outside the gossip
	// round; the counter reaches /metrics.
	var sb strings.Builder
	if err := c.Node(0).Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	const eager = "gocast_fec_symbol_adverts_eager_total"
	if f := promtest.Parse(t, sb.String())[eager]; f == nil || f.Samples[eager] < 1 {
		t.Fatalf("%s missing or zero on the publisher: %+v", eager, f)
	}
}
