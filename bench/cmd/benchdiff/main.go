// Command benchdiff compares two sets of benchmark result files (the JSON
// records `bench -out <dir>` writes). For every workload and every gated
// end-to-end metric it prints each side's median and quartiles, the change
// against the metric's bound from BENCHMARK.json, and a verdict:
//
//	ok          B's median is no worse than A's by more than the bound
//	BREACH      it is worse by more than the bound
//	unresolved  either side's own run-to-run spread (IQR / median) exceeds
//	            the bound, so the comparison cannot tell
//
// Below them it lists the per-layer metrics both sides recorded (traced
// runs), with medians, quartiles and the change, but no verdict. It reads
// BENCHMARK.json from the working directory, so run it from the checkout
// root. It exits non-zero on a breach, on a run that failed its correctness
// checks, and when a workload or a gated metric is missing on either side.
// Running it on two sets from the same commit is the A/A check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gocast/bench/internal/quantile"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type record struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	Correct  bool   `json:"correct"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// set maps workload -> metric -> the values of every run in one directory.
type set struct {
	values    map[string]map[string][]float64
	runs      map[string]int
	incorrect int
}

// load reads every record in dir. End-to-end metrics are taken from
// untraced runs only; everything else from any run.
func load(dir string, gated map[string]bool) (*set, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	s := &set{values: map[string]map[string][]float64{}, runs: map[string]int{}}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Correct {
			s.incorrect++
		}
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		s.runs[r.Workload]++
		for name, m := range r.Metrics {
			if r.Trace && gated[name] {
				continue
			}
			s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
		}
	}
	return s, nil
}

func quartiles(vals []float64) (q1, q2, q3 float64) { return quantile.Quartiles(vals) }

type verdict int

const (
	ok verdict = iota
	unresolved
	breach
)

func (v verdict) String() string { return [...]string{"ok", "unresolved", "BREACH"}[v] }

// judge compares B against A for one metric. worse is the signed relative
// change of the median in the metric's bad direction; spread is the larger
// of the two sides' IQR / median.
func judge(a, b []float64, m metricSpec) (worse, spread float64, v verdict) {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	if am == 0 {
		return 0, 0, unresolved
	}
	worse = (bm - am) / am
	if m.Better == "higher" {
		worse = -worse
	}
	spread = (a3 - a1) / am
	if bm != 0 {
		if s := (b3 - b1) / bm; s > spread {
			spread = s
		}
	}
	switch {
	case spread > m.Bound:
		v = unresolved
	case worse > m.Bound:
		v = breach
	}
	return worse, spread, v
}

const specPath = "BENCHMARK.json"

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff <dir A> <dir B>   (from the checkout root, where BENCHMARK.json is)")
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	code, err := run(flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(dirA, dirB string) (int, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return 0, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return 0, fmt.Errorf("%s: %w", specPath, err)
	}
	gated := map[string]bool{}
	for _, m := range sp.EndToEnd {
		gated[m.Name] = true
	}
	a, err := load(dirA, gated)
	if err != nil {
		return 0, err
	}
	b, err := load(dirB, gated)
	if err != nil {
		return 0, err
	}
	code := 0
	if a.incorrect+b.incorrect > 0 {
		fmt.Printf("%d runs in A and %d in B failed their correctness checks\n", a.incorrect, b.incorrect)
		code = 1
	}
	for _, w := range sp.Workloads {
		av, bv := a.values[w.Name], b.values[w.Name]
		fmt.Printf("== %s (A %d runs, B %d runs)\n", w.Name, a.runs[w.Name], b.runs[w.Name])
		fmt.Printf("  %-30s %-6s %36s %36s %9s %8s %8s  %s\n", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "worse by", "bound", "spread", "verdict")
		for _, m := range sp.EndToEnd {
			if len(av[m.Name]) == 0 || len(bv[m.Name]) == 0 {
				fmt.Printf("  %-30s MISSING (A %d values, B %d values)\n", m.Name, len(av[m.Name]), len(bv[m.Name]))
				code = 1
				continue
			}
			worse, spread, v := judge(av[m.Name], bv[m.Name], m)
			fmt.Printf("  %-30s %-6s %36s %36s %+8.2f%% %7.1f%% %7.2f%%  %s\n", m.Name, m.Unit,
				summary(av[m.Name]), summary(bv[m.Name]), worse*100, m.Bound*100, spread*100, v)
			if v == breach {
				code = 1
			}
		}
		for _, m := range sp.PerLayer {
			if len(av[m.Name]) == 0 || len(bv[m.Name]) == 0 {
				continue
			}
			_, am, _ := quartiles(av[m.Name])
			_, bm, _ := quartiles(bv[m.Name])
			change := ""
			if am != 0 {
				change = fmt.Sprintf("%+.2f%%", (bm-am)/am*100)
			}
			fmt.Printf("  %-30s %-6s %36s %36s %9s\n", m.Name, m.Unit, summary(av[m.Name]), summary(bv[m.Name]), change)
		}
	}
	return code, nil
}

func summary(vals []float64) string {
	q1, med, q3 := quartiles(vals)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", med, q1, q3)
}
