package dtrace

import (
	"fmt"
	"strings"
	"time"
)

// Render formats the trace as an ASCII dissemination tree, one line per
// delivery, with the latency attribution inline:
//
//	msg 0/12 deliveries=5 (tree=3 pull=1 sync=1) max_hops=3
//	└─ node 0 inject
//	   ├─ node 1 tree hops=1 age=12ms
//	   │  └─ node 4 pull hops=2 age=87ms wait=40ms rtt=21ms attempts=1
//	   └─ node 2 tree hops=1 age=13ms
func (t *MessageTrace) Render() string {
	var b strings.Builder
	tree, pull, sync, fec := t.Counts()
	fmt.Fprintf(&b, "msg %d/%d deliveries=%d (", t.Src, t.Seq, len(t.Deliveries))
	parts := []string{}
	for _, kv := range []struct {
		k string
		v int
	}{{"tree", tree}, {"pull", pull}, {"sync", sync}, {"fec", fec}} {
		if kv.v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", kv.k, kv.v))
		}
	}
	fmt.Fprintf(&b, "%s) max_hops=%d\n", strings.Join(parts, " "), t.MaxHops())

	if t.Root != nil {
		renderNode(&b, t.Root, "", "└─ ", "   ")
	}
	if len(t.Orphans) > 0 {
		fmt.Fprintf(&b, "orphans (sender's delivery not in trace):\n")
		for _, d := range t.Orphans {
			fmt.Fprintf(&b, "  %s (from %d)\n", deliveryLine(d), d.From)
		}
	}
	return b.String()
}

// renderNode emits one delivery line and recurses into its children.
func renderNode(b *strings.Builder, d *Delivery, prefix, branch, cont string) {
	fmt.Fprintf(b, "%s%s%s\n", prefix, branch, deliveryLine(d))
	for i, c := range d.Children {
		if i == len(d.Children)-1 {
			renderNode(b, c, prefix+cont, "└─ ", "   ")
		} else {
			renderNode(b, c, prefix+cont, "├─ ", "│  ")
		}
	}
}

// deliveryLine formats one delivery's attribution.
func deliveryLine(d *Delivery) string {
	var b strings.Builder
	fmt.Fprintf(&b, "node %d %s", d.Node, d.Via)
	if d.Via != "inject" {
		fmt.Fprintf(&b, " hops=%d age=%s", d.Hops, rdur(d.Age))
	}
	if d.Via == "pull" {
		fmt.Fprintf(&b, " wait=%s rtt=%s attempts=%d", rdur(d.Wait), rdur(d.RTT), d.Attempts)
	}
	if d.Via == "fec" {
		fmt.Fprintf(&b, " symbols=%d assembly=%s", d.Symbols, rdur(d.Assembly))
		if d.Attempts > 0 {
			fmt.Fprintf(&b, " wait=%s pulls=%d", rdur(d.Wait), d.Attempts)
		}
	}
	return b.String()
}

// rdur rounds durations for display without losing sub-millisecond
// latencies.
func rdur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.String()
	}
}
