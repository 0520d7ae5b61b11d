package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// result is everything one run measured. Metrics holds every metric the run
// produced, end-to-end and per-layer alike; which of them reach the final
// JSON line depends on -trace.
type result struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	// TraceDir is where a traced run writes its span file, relative to the
	// checkout root the benchmark is run from.
	TraceDir  string
	Attempted int64
	Failed    int64
	// Errors are failed correctness checks; any entry makes the run
	// incorrect and the process exit non-zero.
	Errors  []string
	Metrics map[string]float64
	// Samples records, per metric, how many observations stand behind the
	// reported value (printed, not gated).
	Samples map[string]int
}

func newResult(workload string, seed int64, seconds int, trace bool) *result {
	return &result{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, TraceDir: "bench/out",
		Metrics: map[string]float64{}, Samples: map[string]int{},
	}
}

func (r *result) set(name string, v float64)         { r.Metrics[name] = v }
func (r *result) setN(name string, v float64, n int) { r.Metrics[name] = v; r.Samples[name] = n }
func (r *result) errorf(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}
func (r *result) correct() bool { return len(r.Errors) == 0 && r.Failed == 0 }

// envStamp describes the box the numbers were taken on.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Network    string `json:"network"`
}

func stampEnv() envStamp {
	return envStamp{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Network:    "host loopback interface, every node inside this one process",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (e envStamp) String() string {
	return fmt.Sprintf("%s %s/%s, %d CPUs (GOMAXPROCS %d), %s; live traffic: %s",
		e.GoVersion, e.GOOS, e.GOARCH, e.NumCPU, e.GOMAXPROCS, e.CPUModel, e.Network)
}

// processCPU returns the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// unitOf finds a metric's unit in the catalogue.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// printHuman writes every metric the run measured, by name with its unit:
// the gated end-to-end ones first, then the layer metrics grouped by layer.
func (r *result) printHuman(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%d trace=%v ==\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	line := func(name string) {
		v, ok := r.Metrics[name]
		if !ok {
			return
		}
		n := ""
		if c, ok := r.Samples[name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "  %-34s %16.10g %-6s%s\n", name, v, unitOf(name), n)
	}
	if !r.Trace {
		fmt.Fprintln(w, " end-to-end (tracing off):")
		for _, d := range endToEnd {
			line(d.name)
		}
	}
	fmt.Fprintln(w, " per-layer:")
	for _, d := range perLayer {
		line(d.name)
	}
	fmt.Fprintf(w, " ops_attempted=%d ops_failed=%d correct=%v\n", r.Attempted, r.Failed, r.correct())
	for _, e := range r.Errors {
		fmt.Fprintf(w, " CHECK FAILED: %s\n", e)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine renders the contract's final stdout line: exactly the
// end-to-end metrics for an untraced run, exactly the per-layer metrics
// for a traced one. A per-layer metric the workload does not exercise is 0.
func (r *result) driverLine() (string, error) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	metrics := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok && !r.Trace {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), attempted, r.Failed, metrics})
	return string(b), err
}

// record is the result-file format -out writes and benchdiff reads: unlike
// the driver line it names its workload and keeps every metric measured.
type record struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Seconds   int                   `json:"seconds"`
	Trace     bool                  `json:"trace"`
	Env       envStamp              `json:"env"`
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Errors    []string              `json:"errors,omitempty"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) writeRecord(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := record{
		Workload: r.Workload, Seed: r.Seed, Seconds: r.Seconds, Trace: r.Trace, Env: stampEnv(),
		Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Errors: r.Errors,
		Metrics: map[string]jsonMetric{},
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		rec.Metrics[k] = jsonMetric{Value: r.Metrics[k], Unit: unitOf(k)}
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-s%d-%d.json", r.Workload, r.Seed, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
