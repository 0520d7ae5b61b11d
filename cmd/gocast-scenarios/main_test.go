package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden report digest in testdata/")

// goldenReports holds the SHA-256 of what `gocast-scenarios -scenario all
// -json` prints at the committed seeds, one file per GOOS/GOARCH: the Go
// compiler fuses floating-point multiply-add on some architectures (arm64,
// ppc64, s390x), which can move simulated latencies and so the report
// bytes.
var goldenReports = filepath.Join("testdata", "all-json."+runtime.GOOS+"-"+runtime.GOARCH+".sha256")

// TestScenarioReportsPinned pins the netsim scenario reports byte for
// byte: a run is a pure function of (scenario, seed), so any change to
// the bytes is a behaviour change somewhere under the scenarios (protocol,
// simulator, fault injection, report rendering). A deliberate change
// regenerates the digest with
//
//	go test ./cmd/gocast-scenarios -run TestScenarioReportsPinned -update
//
// which also records one for a platform that has none yet; without a
// digest for the running platform the test skips. The full library runs
// in a few seconds, so the test runs under -short too.
func TestScenarioReportsPinned(t *testing.T) {
	data, err := os.ReadFile(goldenReports)
	if errors.Is(err, fs.ErrNotExist) && !*update {
		t.Skipf("no golden digest for %s/%s (%s); record one with -update", runtime.GOOS, runtime.GOARCH, goldenReports)
	}
	if err != nil && !*update {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := run([]string{"-scenario", "all", "-json"}, &b); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b.Bytes())
	got := hex.EncodeToString(sum[:])
	if *update {
		if err := os.WriteFile(goldenReports, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want := strings.TrimSpace(string(data)); got != want {
		t.Fatalf("scenario reports changed: sha256 %s, golden %s (%d bytes of JSON); rerun with -update if the change is intended", got, want, b.Len())
	}
}

func TestListPrintsLibrary(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-list"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"split-brain-heal", "churn-storm", "rolling-restart", "FAULTS"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownScenarioRejected(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-scenario", "nope"}, &b); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// tinyScenario is a fast well-formed scenario file for end-to-end runs.
const tinyScenario = `{
  "name": "tiny",
  "seed": 3,
  "groups": [
    {"name": "pubs", "role": "publisher", "nodes": 4, "rate": 2, "protected": true},
    {"name": "subs", "role": "subscriber", "nodes": 8}
  ],
  "warmup": "45s",
  "phases": [{"name": "lossy", "duration": "30s", "loss": 0.05}],
  "drain": "60s",
  "invariants": {"atomicity": true, "tree_valid": true, "convergence": true, "recovery": true, "no_critical_sheds": true}
}`

func TestRunScenarioFileJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.json")
	if err := os.WriteFile(path, []byte(tinyScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-scenario", path, "-json"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"scenario": "tiny"`) || !strings.Contains(out, `"passed": true`) {
		t.Fatalf("unexpected JSON report:\n%s", out)
	}
}

func TestSpliceSectionReplacesAndAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "EXP.md")
	if err := os.WriteFile(path, []byte("# doc\n\nbody\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := spliceSection(path, tableBegin+"\nv1\n"+tableEnd); err != nil {
		t.Fatal(err)
	}
	if err := spliceSection(path, tableBegin+"\nv2\n"+tableEnd); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	out := string(data)
	if strings.Contains(out, "v1") || !strings.Contains(out, "v2") {
		t.Fatalf("splice did not replace the marked block:\n%s", out)
	}
	if strings.Count(out, tableBegin) != 1 || !strings.Contains(out, "# doc") {
		t.Fatalf("splice damaged the document:\n%s", out)
	}
}

func TestFormatCount(t *testing.T) {
	for n, want := range map[int64]string{0: "0", 999: "999", 1000: "1,000", 1234567: "1,234,567"} {
		if got := formatCount(n); got != want {
			t.Errorf("formatCount(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestFullLibraryText(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario library run")
	}
	var b strings.Builder
	if err := run([]string{"-scenario", "split-brain-heal"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "PASS") {
		t.Fatalf("report missing verdict:\n%s", b.String())
	}
}
