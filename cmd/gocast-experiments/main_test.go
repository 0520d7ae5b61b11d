package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden figure digest in testdata/")

// goldenFigures holds the SHA-256 of what `gocast-experiments -fig all
// -scale quick` prints, wall-clock lines removed, one file per
// GOOS/GOARCH: the Go compiler fuses floating-point multiply-add on some
// architectures (arm64, ppc64, s390x), which can move simulated latencies
// and so the table bytes.
var goldenFigures = filepath.Join("testdata", "all-quick."+runtime.GOOS+"-"+runtime.GOARCH+".sha256")

// TestFigureOutputsPinned pins every quick-scale figure byte for byte:
// each simulation is a pure function of its scale and seed, and the
// tables are identical at any -parallel value, so any change to the bytes
// is a behaviour change somewhere under the experiments (protocol,
// simulator, experiment code, table rendering). Wall-clock readings (the
// "# generated in" lines and the scale sweep's wall and ev/s columns) are
// left out of the digest. A deliberate change regenerates the digest with
//
//	go test ./cmd/gocast-experiments -run TestFigureOutputsPinned -update
//
// which also records one for a platform that has none yet; without a
// digest for the running platform the test skips. The 22 figures take a
// few minutes on two cores, so -short skips the test.
func TestFigureOutputsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick-scale figure")
	}
	data, err := os.ReadFile(goldenFigures)
	if errors.Is(err, fs.ErrNotExist) && !*update {
		t.Skipf("no golden digest for %s/%s (%s); record one with -update", runtime.GOOS, runtime.GOARCH, goldenFigures)
	}
	if err != nil && !*update {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := run([]string{"-fig", "all", "-scale", "quick", "-parallel", strconv.Itoa(runtime.NumCPU())}, &b); err != nil {
		t.Fatal(err)
	}
	got := figureDigest(t, &b)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenFigures), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFigures, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want := strings.TrimSpace(string(data)); got != want {
		t.Fatalf("figure outputs changed: sha256 %s, golden %s; rerun with -update if the change is intended", got, want)
	}
}

// figureDigest hashes figure output without its wall-clock readings: the
// "# generated in" lines go, and in a table whose header names "wall" or
// "ev/s" (the scale sweep's host timings) those cells read "-". The rows
// of such a table, header included, are re-joined with single spaces,
// since a timing's width moves the padding of the columns after it.
func figureDigest(t *testing.T, out io.Reader) string {
	t.Helper()
	h := sha256.New()
	var masked []int // wall-clock columns of the table being read
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# generated in ") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0 || strings.HasPrefix(line, "#"):
			masked = nil
		case masked != nil:
			for _, i := range masked {
				if i < len(fields) {
					fields[i] = "-"
				}
			}
			line = strings.Join(fields, " ")
		default:
			for i, f := range fields {
				if f == "wall" || f == "ev/s" {
					masked = append(masked, i)
				}
			}
			if masked != nil {
				line = strings.Join(fields, " ")
			}
		}
		io.WriteString(h, line+"\n")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestFigure1RunsQuickly(t *testing.T) {
	if err := run([]string{"-fig", "1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownFigureRejected(t *testing.T) {
	if err := run([]string{"-fig", "nope"}, io.Discard); err == nil {
		t.Fatalf("unknown figure accepted")
	}
}

func TestUnknownScaleRejected(t *testing.T) {
	if err := run([]string{"-scale", "mega"}, io.Discard); err == nil {
		t.Fatalf("unknown scale accepted")
	}
}

func TestTinyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	err := run([]string{
		"-fig", "5a,hears",
		"-scale", "quick",
		"-nodes", "64",
		"-warmup", "30s",
		"-messages", "10",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}
