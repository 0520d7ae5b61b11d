// Package metrics collects and summarizes measurements produced by the
// GoCast experiments: per-message delivery delays (CDFs over nodes, as in
// Figures 3 and 4), histograms (degree distributions, Figure 5a), and time
// series (link latency and link-change rates, Figure 5b and the adaptation
// results).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// DelaySample records how long one node waited for one multicast message.
type DelaySample struct {
	Node  int
	Msg   int
	Delay time.Duration
}

// DelayRecorder accumulates delivery delays across messages and nodes.
type DelayRecorder struct {
	samples []time.Duration
	misses  int // node/message pairs that never received the message
}

// NewDelayRecorder returns an empty recorder.
func NewDelayRecorder() *DelayRecorder { return &DelayRecorder{} }

// Add records one delivery delay.
func (r *DelayRecorder) Add(d time.Duration) { r.samples = append(r.samples, d) }

// AddMiss records a node that never received a message.
func (r *DelayRecorder) AddMiss() { r.misses++ }

// Count returns the number of recorded deliveries.
func (r *DelayRecorder) Count() int { return len(r.samples) }

// Misses returns the number of recorded non-deliveries.
func (r *DelayRecorder) Misses() int { return r.misses }

// DeliveryRatio returns delivered / (delivered + missed), or 1 for no data.
func (r *DelayRecorder) DeliveryRatio() float64 {
	total := len(r.samples) + r.misses
	if total == 0 {
		return 1
	}
	return float64(len(r.samples)) / float64(total)
}

// CDF summarizes a delay distribution.
type CDF struct {
	sorted []time.Duration
	misses int
}

// CDF freezes the recorder into a queryable distribution.
func (r *DelayRecorder) CDF() *CDF {
	s := append([]time.Duration(nil), r.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return &CDF{sorted: s, misses: r.misses}
}

// Quantile returns the q-quantile delay (0 <= q <= 1) over deliveries.
// It returns 0 when there are no samples.
func (c *CDF) Quantile(q float64) time.Duration {
	if len(c.sorted) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	idx := int(q * float64(len(c.sorted)-1))
	return c.sorted[idx]
}

// Mean returns the average delay over deliveries.
func (c *CDF) Mean() time.Duration {
	if len(c.sorted) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range c.sorted {
		sum += d
	}
	return sum / time.Duration(len(c.sorted))
}

// Max returns the largest delay.
func (c *CDF) Max() time.Duration {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[len(c.sorted)-1]
}

// FractionWithin returns the fraction of ALL node/message pairs (including
// misses) delivered within d. This is the Y axis of Figures 3 and 4.
func (c *CDF) FractionWithin(d time.Duration) float64 {
	total := len(c.sorted) + c.misses
	if total == 0 {
		return 1
	}
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > d })
	return float64(i) / float64(total)
}

// Series samples the CDF at evenly spaced delays from 0 to max, returning
// (delay, fraction) points suitable for plotting.
func (c *CDF) Series(points int, max time.Duration) []Point {
	if points < 2 {
		points = 2
	}
	out := make([]Point, points)
	for i := 0; i < points; i++ {
		d := max * time.Duration(i) / time.Duration(points-1)
		out[i] = Point{X: d.Seconds(), Y: c.FractionWithin(d)}
	}
	return out
}

// Point is an (x, y) plot point.
type Point struct{ X, Y float64 }

// Table renders rows of labelled series as an aligned text table with a
// header, the common output format of the experiment runners.
func Table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			w := len(cell)
			if i < len(width) {
				w = width[i]
			}
			fmt.Fprintf(&b, "%-*s", w, cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// IntHistogram counts occurrences of small non-negative integers
// (e.g. node degrees).
type IntHistogram struct {
	counts []int
	total  int
}

// NewIntHistogram returns an empty histogram.
func NewIntHistogram() *IntHistogram { return &IntHistogram{} }

// Add increments the count for value v (negative values are clamped to 0).
func (h *IntHistogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	for len(h.counts) <= v {
		h.counts = append(h.counts, 0)
	}
	h.counts[v]++
	h.total++
}

// Total returns the number of added values.
func (h *IntHistogram) Total() int { return h.total }

// Fraction returns the fraction of values equal to v.
func (h *IntHistogram) Fraction(v int) float64 {
	if h.total == 0 || v < 0 || v >= len(h.counts) {
		return 0
	}
	return float64(h.counts[v]) / float64(h.total)
}

// CumulativeFraction returns the fraction of values <= v.
func (h *IntHistogram) CumulativeFraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	sum := 0
	for i := 0; i <= v && i < len(h.counts); i++ {
		sum += h.counts[i]
	}
	return float64(sum) / float64(h.total)
}

// Mean returns the average of the added values.
func (h *IntHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	sum := 0
	for v, c := range h.counts {
		sum += v * c
	}
	return float64(sum) / float64(h.total)
}

// Max returns the largest added value (0 if empty).
func (h *IntHistogram) Max() int {
	for v := len(h.counts) - 1; v >= 0; v-- {
		if h.counts[v] > 0 {
			return v
		}
	}
	return 0
}

// TimeSeries accumulates (time, value) observations bucketed by interval,
// reporting the per-bucket mean — used for "average link latency over time"
// and "link changes per second" plots.
type TimeSeries struct {
	interval time.Duration
	sum      map[int64]float64
	count    map[int64]int
}

// NewTimeSeries buckets observations into windows of the given interval.
func NewTimeSeries(interval time.Duration) *TimeSeries {
	if interval <= 0 {
		panic("metrics: non-positive time series interval")
	}
	return &TimeSeries{
		interval: interval,
		sum:      make(map[int64]float64),
		count:    make(map[int64]int),
	}
}

// Observe records value v at time at.
func (ts *TimeSeries) Observe(at time.Duration, v float64) {
	b := int64(at / ts.interval)
	ts.sum[b] += v
	ts.count[b]++
}

// SeriesPoint is one bucket of a time series.
type SeriesPoint struct {
	Start time.Duration
	Mean  float64
	Sum   float64
	Count int
}

// Points returns the buckets in time order.
func (ts *TimeSeries) Points() []SeriesPoint {
	buckets := make([]int64, 0, len(ts.sum))
	for b := range ts.sum {
		buckets = append(buckets, b)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i] < buckets[j] })
	out := make([]SeriesPoint, len(buckets))
	for i, b := range buckets {
		out[i] = SeriesPoint{
			Start: time.Duration(b) * ts.interval,
			Mean:  ts.sum[b] / float64(ts.count[b]),
			Sum:   ts.sum[b],
			Count: ts.count[b],
		}
	}
	return out
}
