// Command gocast-sim runs a single configurable GoCast simulation and
// prints delivery statistics — a playground for exploring the protocol
// outside the fixed paper experiments.
//
// Example:
//
//	gocast-sim -nodes 1024 -warmup 500s -messages 1000 -fail 0.2
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gocast/internal/core"
	"gocast/internal/dtrace"
	"gocast/internal/netsim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gocast-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gocast-sim", flag.ContinueOnError)
	var (
		nodes    = fs.Int("nodes", 256, "system size")
		seed     = fs.Int64("seed", 1, "random seed")
		warmup   = fs.Duration("warmup", 150*time.Second, "adaptation time before messages")
		messages = fs.Int("messages", 100, "number of multicasts")
		rate     = fs.Float64("rate", 100, "multicasts per second")
		drain    = fs.Duration("drain", 30*time.Second, "time to wait for stragglers")
		fail     = fs.Float64("fail", 0, "fraction of nodes killed before messages (no repair)")
		crand    = fs.Int("crand", 1, "target random degree")
		cnear    = fs.Int("cnear", 5, "target nearby degree")
		tree     = fs.Bool("tree", true, "enable the embedded multicast tree")
		pullf    = fs.Duration("pulldelay", 0, "pull delay f")
		traceN   = fs.Int("trace", 0, "dump the last N protocol events after the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := core.DefaultConfig()
	cfg.CRand, cfg.CNear, cfg.EnableTree, cfg.PullDelay = *crand, *cnear, *tree, *pullf
	opts := netsim.Options{Nodes: *nodes, Seed: *seed, Config: cfg}
	var tracer *dtrace.Buffer
	if *traceN > 0 {
		// Keep what shapes the run: deliveries, link and parent changes.
		tracer = dtrace.NewBuffer(*traceN)
		opts.Trace = func(s dtrace.Span) {
			switch {
			case s.Kind.DeliveryKind(), s.Kind == dtrace.KindLinkUp, s.Kind == dtrace.KindLinkDown, s.Kind == dtrace.KindParent:
				tracer.Record(s)
			}
		}
	}
	c := netsim.New(opts)
	c.BootstrapMembership(cfg.MemberViewSize / 2)
	c.WireRandom((cfg.TargetDegree() + 1) / 2)
	c.Start(0)

	start := time.Now()
	c.Run(*warmup)
	fmt.Printf("after %v adaptation (%v wall):\n", *warmup, time.Since(start).Round(time.Millisecond))
	h := c.DegreeHistogram()
	fmt.Printf("  degrees: mean %.2f, %0.f%% at %d, %0.f%% at %d\n",
		h.Mean(), h.Fraction(cfg.TargetDegree())*100, cfg.TargetDegree(),
		h.Fraction(cfg.TargetDegree()+1)*100, cfg.TargetDegree()+1)
	fmt.Printf("  overlay links: avg %v one-way; tree links: avg %v; connected: %.3f\n",
		c.AvgOverlayLinkLatency(), c.AvgTreeLinkLatency(), c.LargestComponentRatio())

	if *fail > 0 {
		c.SetMaintenance(false)
		c.SetDetection(false)
		killed := c.KillFraction(*fail)
		fmt.Printf("killed %d nodes (no repair); overlay q=%.3f\n", len(killed), c.LargestComponentRatio())
	}

	c.InjectStream(*messages, *rate, nil)
	c.Run(time.Duration(float64(*messages) / *rate * float64(time.Second)) + *drain)

	rec := c.Delays()
	cdf := rec.CDF()
	fmt.Printf("delivery over %d messages x %d live nodes:\n", *messages, c.AliveCount())
	fmt.Printf("  ratio %.4f  p50 %v  p90 %v  p99 %v  max %v\n",
		rec.DeliveryRatio(), cdf.Quantile(0.5), cdf.Quantile(0.9), cdf.Quantile(0.99), cdf.Max())
	cnt := c.SumCounters()
	fmt.Printf("  gossips %d, pulls %d served %d, duplicates %d (%.4f/pair)\n",
		cnt.GossipsSent, cnt.PullsSent, cnt.PullsServed, cnt.Duplicates,
		float64(cnt.Duplicates)/(float64(*messages)*float64(c.AliveCount())))
	if tracer != nil {
		events := tracer.Snapshot()
		counts := map[dtrace.Kind]int{}
		for _, e := range events {
			counts[e.Kind]++
		}
		fmt.Print("trace summary:")
		for k := dtrace.KindInject; k <= dtrace.KindStoreGC; k++ {
			if counts[k] > 0 {
				fmt.Printf(" %s=%d", k, counts[k])
			}
		}
		fmt.Println()
		for _, e := range events {
			fmt.Println(e)
		}
		fmt.Printf("-- %d events (%d evicted)\n", len(events), tracer.Dropped())
	}
	return nil
}
