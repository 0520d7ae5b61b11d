package live

import (
	"testing"
	"time"

	"gocast/internal/core"
)

// TestNodeAPIAfterKillReturnsZeroValues pins the documented post-stop
// semantics: accessors return zero values promptly, never hang, and
// Multicast injects nothing.
func TestNodeAPIAfterKillReturnsZeroValues(t *testing.T) {
	net := NewMemNetwork(time.Millisecond, 9)
	n := NewNode(NodeOptions{ID: 1, Config: FastConfig(), Transport: net.Endpoint("n1"), Seed: 1})
	n.BecomeRoot()
	if n.Stopped() {
		t.Fatalf("fresh node reports stopped")
	}
	if id := n.Multicast([]byte("x")); id == (core.MessageID{}) {
		t.Fatalf("live multicast returned the zero MessageID")
	}

	n.Kill()
	if !n.Stopped() {
		t.Fatalf("killed node does not report stopped")
	}
	if id := n.Multicast([]byte("y")); id != (core.MessageID{}) {
		t.Errorf("post-kill Multicast returned %v, want zero", id)
	}
	if d := n.Degree(); d != 0 {
		t.Errorf("post-kill Degree = %d, want 0", d)
	}
	if nbs := n.Neighbors(); nbs != nil {
		t.Errorf("post-kill Neighbors = %v, want nil", nbs)
	}
	if n.Seen(core.MessageID{Source: 1, Seq: 0}) {
		t.Errorf("post-kill Seen leaked state")
	}
	// Stats freeze at the final pre-stop snapshot instead of zeroing: the
	// one multicast injected above must survive the Kill.
	if s := n.Stats(); s.Injected != 1 || s.Delivered != 1 {
		t.Errorf("post-kill Stats = %+v, want the frozen pre-stop snapshot (Injected=1, Delivered=1)", s)
	}
	// Stopping again is idempotent, in either form.
	n.Kill()
	n.Close()
}
