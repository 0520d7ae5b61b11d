package metrics

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestDelayRecorderAndCDF(t *testing.T) {
	r := NewDelayRecorder()
	for _, ms := range []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
		r.Add(time.Duration(ms) * time.Millisecond)
	}
	if r.Count() != 10 {
		t.Fatalf("Count = %d, want 10", r.Count())
	}
	c := r.CDF()
	if got := c.Quantile(0); got != 10*time.Millisecond {
		t.Errorf("Q0 = %v, want 10ms", got)
	}
	if got := c.Quantile(1); got != 100*time.Millisecond {
		t.Errorf("Q1 = %v, want 100ms", got)
	}
	if got := c.Mean(); got != 55*time.Millisecond {
		t.Errorf("Mean = %v, want 55ms", got)
	}
	if got := c.Max(); got != 100*time.Millisecond {
		t.Errorf("Max = %v, want 100ms", got)
	}
	if got := c.FractionWithin(50 * time.Millisecond); got != 0.5 {
		t.Errorf("FractionWithin(50ms) = %v, want 0.5", got)
	}
}

func TestMissesLowerTheCurve(t *testing.T) {
	r := NewDelayRecorder()
	r.Add(10 * time.Millisecond)
	r.AddMiss()
	if got := r.DeliveryRatio(); got != 0.5 {
		t.Fatalf("DeliveryRatio = %v, want 0.5", got)
	}
	c := r.CDF()
	if got := c.FractionWithin(time.Second); got != 0.5 {
		t.Fatalf("FractionWithin = %v, want 0.5 (miss never delivers)", got)
	}
}

func TestEmptyCDF(t *testing.T) {
	c := NewDelayRecorder().CDF()
	if c.Quantile(0.5) != 0 || c.Mean() != 0 || c.Max() != 0 {
		t.Fatalf("empty CDF should return zeros")
	}
	if c.FractionWithin(time.Second) != 1 {
		t.Fatalf("empty CDF FractionWithin should be 1")
	}
}

func TestCDFSeriesMonotone(t *testing.T) {
	r := NewDelayRecorder()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		r.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
	}
	r.AddMiss()
	pts := r.CDF().Series(50, time.Second)
	if len(pts) != 50 {
		t.Fatalf("points = %d, want 50", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatalf("CDF series not monotone at %d", i)
		}
	}
	if pts[len(pts)-1].Y >= 1 {
		t.Fatalf("with a miss the curve must stay below 1")
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []uint16, qa, qb float64) bool {
		if len(raw) == 0 {
			return true
		}
		qa, qb = clamp01(qa), clamp01(qb)
		if qa > qb {
			qa, qb = qb, qa
		}
		r := NewDelayRecorder()
		for _, v := range raw {
			r.Add(time.Duration(v) * time.Millisecond)
		}
		c := r.CDF()
		return c.Quantile(qa) <= c.Quantile(qb) &&
			c.Quantile(0) <= c.Mean() && c.Mean() <= c.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func clamp01(x float64) float64 {
	if x != x || x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func TestIntHistogram(t *testing.T) {
	h := NewIntHistogram()
	for _, v := range []int{6, 6, 6, 7, 5, 6} {
		h.Add(v)
	}
	if h.Total() != 6 {
		t.Fatalf("Total = %d, want 6", h.Total())
	}
	if got := h.Fraction(6); got != 4.0/6 {
		t.Errorf("Fraction(6) = %v, want 2/3", got)
	}
	if got := h.CumulativeFraction(6); got != 5.0/6 {
		t.Errorf("CumulativeFraction(6) = %v, want 5/6", got)
	}
	if got := h.Mean(); got != 36.0/6 {
		t.Errorf("Mean = %v, want 6", got)
	}
	if got := h.Max(); got != 7 {
		t.Errorf("Max = %d, want 7", got)
	}
}

func TestIntHistogramEmptyAndNegative(t *testing.T) {
	h := NewIntHistogram()
	if h.Fraction(3) != 0 || h.Mean() != 0 || h.Max() != 0 || h.CumulativeFraction(5) != 0 {
		t.Fatalf("empty histogram should return zeros")
	}
	h.Add(-3)
	if h.Fraction(0) != 1 {
		t.Fatalf("negative values should clamp to 0")
	}
}

func TestTimeSeriesBucketing(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.Observe(100*time.Millisecond, 10)
	ts.Observe(900*time.Millisecond, 20)
	ts.Observe(1500*time.Millisecond, 100)
	pts := ts.Points()
	if len(pts) != 2 {
		t.Fatalf("buckets = %d, want 2", len(pts))
	}
	if pts[0].Start != 0 || pts[0].Mean != 15 || pts[0].Count != 2 || pts[0].Sum != 30 {
		t.Errorf("bucket 0 = %+v", pts[0])
	}
	if pts[1].Start != time.Second || pts[1].Mean != 100 {
		t.Errorf("bucket 1 = %+v", pts[1])
	}
}

func TestTimeSeriesPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("want panic on non-positive interval")
		}
	}()
	NewTimeSeries(0)
}

func TestTable(t *testing.T) {
	out := Table([]string{"proto", "mean"}, [][]string{{"gocast", "0.33"}, {"gossip", "2.9"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "proto") || !strings.Contains(lines[0], "mean") {
		t.Fatalf("bad header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "gocast") {
		t.Fatalf("bad row: %q", lines[1])
	}
}
