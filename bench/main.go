// Command bench is the repository's benchmark: four workloads (two on the
// discrete-event simulator, two on live nodes over loopback TCP), a handful
// of gated end-to-end metrics, per-layer probes and a traced run. It
// measures every layer from outside, through exported calls and seams
// only. See README.md in this directory and BENCHMARK.json at the
// repository root.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
)

func main() {
	workload := flag.String("workload", "", "workload to run: sim-seq, sim-sharded, live-small or live-bulk")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", runSeconds, "nominal measured time; scales iteration counts and window lengths, never a rate")
	trace := flag.Int("trace", 0, "1: run the layer probes and the traced variant of the workload and report per-layer metrics; 0: end-to-end metrics, tracing off")
	probes := flag.Bool("probes", false, "run only the layer probes")
	all := flag.Bool("all", false, "run the probes and every workload, and cross-check sim-seq against sim-sharded")
	outDir := flag.String("out", "", "also write the result as a JSON record into this directory (read by benchdiff)")
	flag.Parse()
	// Live nodes log through the std logger in a few places; the benchmark's
	// stdout must end with the result line and nothing else.
	log.SetOutput(io.Discard)
	if *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	out := os.Stdout
	fmt.Fprintf(out, "env: %s\n", stampEnv())

	switch {
	case *all:
		os.Exit(runAll(*seed, *seconds, *outDir, out))
	case *probes:
		res := newResult("probes", *seed, *seconds, true)
		if err := runProbes(res, out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	res := newResult(*workload, *seed, *seconds, *trace == 1)
	if res.Trace {
		if err := runProbes(res, out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if !runWorkload(res, out) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %v)\n", *workload, workloadNames)
		os.Exit(2)
	}
	os.Exit(finish(res, *outDir, out))
}

// runWorkload dispatches on res.Workload; false means the name is unknown.
func runWorkload(res *result, out io.Writer) bool {
	switch res.Workload {
	case "sim-seq":
		runSim(res, fullSim, 0, out)
	case "sim-sharded":
		runSim(res, fullSim, 2, out)
	case "live-small":
		runLive(res, fullLiveSmall, out)
	case "live-bulk":
		runLive(res, fullLiveBulk, out)
	default:
		return false
	}
	return true
}

// finish prints the run, writes its record and returns the exit code: 0
// only when every correctness check passed.
func finish(res *result, outDir string, out io.Writer) int {
	res.printHuman(out)
	if outDir != "" {
		if err := res.writeRecord(outDir); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := res.driverLine()
	if err != nil {
		// The run broke before it could measure (e.g. the overlay never
		// converged): no result line, non-zero exit.
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(out, line)
	if !res.correct() {
		return 1
	}
	return 0
}

// runAll runs the probes and the four workloads untraced on one seed, then
// cross-checks the two simulated workloads: same scenario, same seed, so
// identical results, and the ratio of their walls is the shard speed-up.
func runAll(seed int64, seconds int, outDir string, out io.Writer) int {
	code := 0
	pr := newResult("probes", seed, seconds, true)
	if err := runProbes(pr, out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 1
	}
	results := map[string]*result{}
	for _, name := range workloadNames {
		res := newResult(name, seed, seconds, false)
		runWorkload(res, out)
		if c := finish(res, outDir, out); c != 0 {
			code = c
		}
		results[name] = res
	}
	seq, sharded := results["sim-seq"].Metrics, results["sim-sharded"].Metrics
	fmt.Fprintln(out, "== sim-seq vs sim-sharded ==")
	// Same scenario, same seed: every exact quantity must be identical.
	for _, name := range []string{"netsim.events", "netsim.result_digest", "deliver_p90_ms", "virt_deliver_p50_ms", "virt_deliver_p99_ms"} {
		verdict := "identical"
		if seq[name] != sharded[name] {
			verdict = "DIFFERENT"
			code = 1
		}
		fmt.Fprintf(out, "  %-30s %16.10g %16.10g  %s\n", name, seq[name], sharded[name], verdict)
	}
	if w := sharded["wall_s"]; w > 0 {
		fmt.Fprintf(out, "  %-30s %16.4g ratio  (sim-seq wall %.3fs / sim-sharded wall %.3fs)\n",
			"netsim.shard_speedup", seq["wall_s"]/w, seq["wall_s"], w)
	}
	return code
}
