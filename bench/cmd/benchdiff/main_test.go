package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "latency_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name string
		a, b []float64
		m    metricSpec
		want verdict
	}{
		{"same", steady, steady, lower, ok},
		{"slower past the bound", steady, []float64{115, 116, 114, 115, 115}, lower, breach},
		{"slower within the bound", steady, []float64{105, 106, 104, 105, 105}, lower, ok},
		{"faster is never a breach", steady, []float64{50, 51, 49, 50, 50}, lower, ok},
		{"rate fell past the bound", steady, []float64{80, 81, 79, 80, 80}, higher, breach},
		{"rate rose", steady, []float64{130, 131, 129, 130, 130}, higher, ok},
		{"too noisy to tell", []float64{60, 100, 140, 80, 120}, []float64{70, 100, 130, 90, 110}, lower, unresolved},
		{"too noisy to call a breach", steady, []float64{90, 130, 170, 110, 150}, lower, unresolved},
	}
	for _, c := range cases {
		if _, _, got := judge(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %v, want %v", c.name, got, c.want)
		}
	}
}

// writeSet writes one record per run of each workload into a fresh
// directory; metrics maps a metric name to its value in every run.
func writeSet(t *testing.T, workloads []string, metrics map[string]float64) string {
	t.Helper()
	dir := t.TempDir()
	for _, w := range workloads {
		for run := 0; run < 3; run++ {
			body := fmt.Sprintf(`{"workload":%q,"trace":false,"correct":true,"metrics":{`, w)
			sep := ""
			for name, v := range metrics {
				body += fmt.Sprintf(`%s%q:{"value":%v}`, sep, name, v)
				sep = ","
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", w, run))
			if err := os.WriteFile(path, []byte(body+"}}"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

// TestRunExitCode: a comparison passes only when both sides hold every
// workload and every gated metric of BENCHMARK.json.
func TestRunExitCode(t *testing.T) {
	root := t.TempDir()
	spec := `{"workloads":[{"name":"w1"},{"name":"w2"}],
		"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.1},{"name":"rate","unit":"1/s","better":"higher","bound":0.1}],
		"per_layer":[{"name":"layer.x","unit":"ns","better":"lower"}]}`
	if err := os.WriteFile(filepath.Join(root, specPath), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	both := []string{"w1", "w2"}
	full := map[string]float64{"setup_s": 1, "rate": 100, "layer.x": 5}
	base := writeSet(t, both, full)
	cases := []struct {
		name string
		dir  string
		want int
	}{
		{"same", writeSet(t, both, full), 0},
		{"breach", writeSet(t, both, map[string]float64{"setup_s": 1, "rate": 80}), 1},
		{"a workload never produced records", writeSet(t, []string{"w1"}, full), 1},
		{"a gated metric is missing", writeSet(t, both, map[string]float64{"setup_s": 1}), 1},
	}
	for _, c := range cases {
		got, err := run(base, c.dir)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: exit code %d, want %d", c.name, got, c.want)
		}
		if got, _ := run(c.dir, base); got != c.want && c.name != "breach" {
			t.Errorf("%s (sides swapped): exit code %d, want %d", c.name, got, c.want)
		}
	}
}
