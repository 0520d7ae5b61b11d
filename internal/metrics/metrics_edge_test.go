package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestSeriesMinimumPoints(t *testing.T) {
	r := NewDelayRecorder()
	r.Add(time.Second)
	pts := r.CDF().Series(1, 2*time.Second) // clamped to 2
	if len(pts) != 2 {
		t.Fatalf("points = %d, want clamp to 2", len(pts))
	}
	if pts[0].X != 0 || pts[1].X != 2 {
		t.Fatalf("series endpoints = %v", pts)
	}
}

func TestQuantileClamping(t *testing.T) {
	r := NewDelayRecorder()
	r.Add(10 * time.Millisecond)
	r.Add(20 * time.Millisecond)
	c := r.CDF()
	if c.Quantile(-0.5) != 10*time.Millisecond {
		t.Errorf("negative quantile should clamp to min")
	}
	if c.Quantile(2.0) != 20*time.Millisecond {
		t.Errorf("over-one quantile should clamp to max")
	}
}

func TestFractionWithinBoundaryInclusive(t *testing.T) {
	r := NewDelayRecorder()
	r.Add(100 * time.Millisecond)
	c := r.CDF()
	if got := c.FractionWithin(100 * time.Millisecond); got != 1 {
		t.Fatalf("boundary delay should count as delivered: %v", got)
	}
	if got := c.FractionWithin(99 * time.Millisecond); got != 0 {
		t.Fatalf("delay below sample should not count: %v", got)
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	if pts := ts.Points(); len(pts) != 0 {
		t.Fatalf("empty series has %d points", len(pts))
	}
}

func TestTableHandlesRaggedRows(t *testing.T) {
	out := Table([]string{"a", "b"}, [][]string{{"1", "2", "extra-is-kept"}, {"3"}})
	if !strings.Contains(out, "extra-is-kept") {
		// Extra cells beyond the header width are still printed; the
		// table must not panic or truncate silently.
		t.Fatalf("ragged row mishandled:\n%s", out)
	}
	if !strings.Contains(out, "3") {
		t.Fatalf("short row dropped:\n%s", out)
	}
}

func TestHistogramCumulativeBeyondMax(t *testing.T) {
	h := NewIntHistogram()
	h.Add(2)
	if got := h.CumulativeFraction(100); got != 1 {
		t.Fatalf("cumulative beyond max = %v, want 1", got)
	}
}
