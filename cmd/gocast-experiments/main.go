// Command gocast-experiments regenerates the tables and figures of the
// GoCast paper (DSN 2005) from the simulation harness in this repository.
//
// Usage:
//
//	gocast-experiments -fig all -scale quick
//	gocast-experiments -fig 3a -scale paper
//
// At -scale paper the setup matches the publication (1,024 nodes, 500 s of
// adaptation, 1,000 messages at 100/s; Figure 4 additionally runs 8,192
// nodes) and a full run takes tens of minutes on one core. -scale quick
// keeps every experiment's shape at a fraction of the cost.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"gocast/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gocast-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gocast-experiments", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", "which figure to regenerate: all,1,3a,3b,3a-curves,3b-curves,4,5a,5b,6,hears,redundancy,linkchanges,randsweep,diameter,stress,fanoutsweep,coopcast,ablate,churn,recovery,paths,scale ('all' skips the -curves variants)")
		scale    = fs.String("scale", "quick", "experiment scale: paper or quick")
		nodes    = fs.Int("nodes", 0, "override the node count")
		seed     = fs.Int64("seed", 0, "override the random seed")
		warmup   = fs.Duration("warmup", 0, "override the adaptation warmup")
		msgs     = fs.Int("messages", 0, "override the message count")
		parallel = fs.Int("parallel", 1, "simulations to run concurrently within an experiment (0 = NumCPU); results are identical at any value")
		shards   = fs.Int("shards", 0, "simulation shards per run (0/1 = sequential; results are identical at any value, multi-core wall clock is not)")
		sizes    = fs.String("scale-sizes", "", "comma-separated node counts for -fig scale (default 4096,32768,102400 paper / 1024,8192 quick)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel <= 0 {
		*parallel = runtime.NumCPU()
	}
	experiments.SetParallelism(*parallel)

	var sc experiments.Scale
	switch *scale {
	case "paper":
		sc = experiments.PaperScale()
	case "quick":
		sc = experiments.QuickScale()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *nodes > 0 {
		sc.Nodes = *nodes
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *warmup > 0 {
		sc.Warmup = *warmup
	}
	if *msgs > 0 {
		sc.Messages = *msgs
	}
	if *shards > 0 {
		sc.Shards = *shards
	}

	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]
	ran := 0
	emit := func(name string, gen func() *experiments.Report) {
		// The -curves variants duplicate their parent experiment's cost,
		// so "all" skips them; request them explicitly.
		if !want[name] && !(all && !strings.HasSuffix(name, "-curves")) {
			return
		}
		ran++
		start := time.Now()
		rep := gen()
		fmt.Fprintln(out, rep.String())
		fmt.Fprintf(out, "# generated in %v\n\n", time.Since(start).Round(time.Millisecond))
	}

	emit("1", func() *experiments.Report { return experiments.Figure1(1024, 20) })
	emit("3a", func() *experiments.Report { return experiments.Figure3(sc, 0) })
	emit("3b", func() *experiments.Report { return experiments.Figure3(sc, 0.20) })
	emit("3a-curves", func() *experiments.Report {
		return experiments.Figure3Curves(sc, 0, 40, 4*time.Second)
	})
	emit("3b-curves", func() *experiments.Report {
		return experiments.Figure3Curves(sc, 0.20, 40, 4*time.Second)
	})
	emit("4", func() *experiments.Report {
		large := sc
		large.Nodes = sc.Nodes * 8
		large.Seed = sc.Seed + 7
		return experiments.Figure4(sc, large, 0.20)
	})
	emit("5a", func() *experiments.Report { return experiments.Figure5a(sc) })
	emit("5b", func() *experiments.Report {
		until, step := 200*time.Second, 10*time.Second
		if sc.Warmup < until {
			until, step = sc.Warmup, sc.Warmup/10
		}
		return experiments.Figure5b(sc, until, step)
	})
	emit("6", func() *experiments.Report { return experiments.Figure6(sc, nil, nil) })
	emit("hears", func() *experiments.Report { return experiments.HearCounts(sc, 5) })
	emit("redundancy", func() *experiments.Report { return experiments.Redundancy(sc, nil) })
	emit("linkchanges", func() *experiments.Report {
		return experiments.LinkChanges(sc, sc.Warmup, sc.Warmup/20)
	})
	emit("randsweep", func() *experiments.Report { return experiments.RandomLinkSweep(sc) })
	emit("diameter", func() *experiments.Report {
		sizes := []int{256, 512, 1024, 2048, 4096, 8192}
		if *scale == "quick" {
			sizes = []int{128, 256, 512, 1024}
		}
		return experiments.Diameter(sizes, sc.Warmup, sc.Seed)
	})
	emit("stress", func() *experiments.Report {
		ases := 256
		if sc.Nodes < 512 {
			ases = 128
		}
		return experiments.LinkStress(sc, ases, 1000)
	})
	emit("fanoutsweep", func() *experiments.Report { return experiments.FanoutSweep(sc, nil) })
	emit("coopcast", func() *experiments.Report { return experiments.Coopcast(sc, nil, 0.07) })
	emit("churn", func() *experiments.Report { return experiments.ChurnSweep(sc, nil) })
	emit("recovery", func() *experiments.Report { return experiments.Recovery(sc, 30*time.Second) })
	emit("paths", func() *experiments.Report { return experiments.Paths(sc, 0.10) })
	emit("scale", func() *experiments.Report {
		// Sweep points are huge; use a short horizon so the largest sizes
		// finish in minutes, and honor explicit -warmup/-messages overrides.
		sw := sc
		sw.Warmup, sw.Messages, sw.Rate, sw.Drain = 30*time.Second, 10, 2, 20*time.Second
		if *warmup > 0 {
			sw.Warmup = *warmup
		}
		if *msgs > 0 {
			sw.Messages = *msgs
		}
		pts := []int{4096, 32768, 102400}
		if *scale == "quick" {
			pts = []int{1024, 8192}
		}
		if *sizes != "" {
			pts = pts[:0]
			for _, s := range strings.Split(*sizes, ",") {
				var n int
				if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil || n <= 0 {
					fmt.Fprintf(os.Stderr, "gocast-experiments: bad -scale-sizes entry %q\n", s)
					os.Exit(1)
				}
				pts = append(pts, n)
			}
		}
		return experiments.ScaleSweep(sw, pts)
	})
	emit("ablate", func() *experiments.Report {
		// Combine the three ablations into one printout.
		a, b, c := experiments.AblateC1(sc), experiments.AblateDropTrigger(sc), experiments.AblateC4(sc)
		fmt.Fprintln(out, a.String())
		fmt.Fprintln(out, b.String())
		return c
	})

	if ran == 0 {
		return fmt.Errorf("no experiment matched -fig %q", *fig)
	}
	return nil
}
