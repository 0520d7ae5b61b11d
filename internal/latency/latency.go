// Package latency models wide-area network latencies between measurement
// sites, standing in for the King dataset used by the GoCast paper.
//
// The paper's experiments use measured RTTs between 1,740 DNS servers
// (average one-way latency 91 ms, maximum 399 ms) and exploit two properties
// of that data: heavy-tailed pairwise latencies, and geographic clustering
// (nearby links are much cheaper than random links; proximity-only overlays
// partition along continents). The synthetic generator reproduces both:
// sites are placed in weighted geographic clusters in a 2-D "milliseconds
// plane", per-site access delays and per-pair jitter are added, and the
// whole matrix is rescaled so the mean one-way latency matches the King
// dataset's 91 ms (values are clamped to the King maximum of 399 ms).
//
// Real measurements can be substituted via Load/Save, which use a plain
// text format.
package latency

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// Calibration targets from the King dataset as reported by the paper.
const (
	// KingMeanOneWay is the average one-way latency of the King dataset.
	KingMeanOneWay = 91 * time.Millisecond
	// KingMaxOneWay is the maximum one-way latency of the King dataset.
	KingMaxOneWay = 399 * time.Millisecond
	// KingSites is the number of DNS servers with usable measurements.
	KingSites = 1740
	// minOneWay is a floor for distinct sites; co-located nodes use LocalOneWay.
	minOneWay = 1 * time.Millisecond
	// LocalOneWay is the latency between two nodes mapped to the same site.
	LocalOneWay = 500 * time.Microsecond
)

// Matrix holds symmetric one-way latencies between n sites, in
// microseconds. Every writer sets both directions of a pair, so each
// unordered pair is stored once: half the bytes of a square matrix, which
// keeps a simulation's latency lookups in cache at larger site counts.
type Matrix struct {
	n  int
	us []int32 // lower triangle without the diagonal: pair (i, j), i < j, at tri(i, j)
	// regions labels each site with the geographic cluster it was
	// synthesized in (index into synthClusters), or is nil for matrices
	// built by NewMatrix/Load. Partition uses the labels as the natural
	// shard cut; unlabeled matrices are partitioned by distance instead.
	regions []int16
}

// tri returns the storage index of the unordered pair {i, j}, i != j:
// row j of the lower triangle starts after the j(j-1)/2 pairs of the rows
// before it.
func tri(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return j*(j-1)/2 + i
}

// NewMatrix returns an all-zero latency matrix over n sites.
func NewMatrix(n int) *Matrix {
	if n <= 0 {
		panic("latency: matrix size must be positive")
	}
	return &Matrix{n: n, us: make([]int32, n*(n-1)/2)}
}

// Sites returns the number of sites in the matrix.
func (m *Matrix) Sites() int { return m.n }

// OneWay returns the one-way latency between sites i and j. The latency
// between a site and itself is LocalOneWay, modelling co-located nodes.
func (m *Matrix) OneWay(i, j int) time.Duration {
	if i == j {
		return LocalOneWay
	}
	return time.Duration(m.us[tri(i, j)]) * time.Microsecond
}

// RTT returns the round-trip time between sites i and j.
func (m *Matrix) RTT(i, j int) time.Duration {
	return 2 * m.OneWay(i, j)
}

// Set assigns the one-way latency between sites i and j (both directions).
func (m *Matrix) Set(i, j int, d time.Duration) {
	m.us[tri(i, j)] = int32(d / time.Microsecond)
}

// Stats summarizes the off-diagonal latency distribution.
type Stats struct {
	Mean, Min, Max time.Duration
	P50, P90, P99  time.Duration
}

// Stats computes distribution statistics over all off-diagonal pairs.
func (m *Matrix) Stats() Stats {
	var sum int64
	all := make([]int32, 0, m.n*(m.n-1))
	for _, v := range m.us {
		// Both directions of the pair, as a square matrix would count it.
		sum += 2 * int64(v)
		all = append(all, v, v)
	}
	if len(all) == 0 {
		return Stats{}
	}
	sortInt32(all)
	pick := func(q float64) time.Duration {
		idx := int(q * float64(len(all)-1))
		return time.Duration(all[idx]) * time.Microsecond
	}
	return Stats{
		Mean: time.Duration(sum/int64(len(all))) * time.Microsecond,
		Min:  time.Duration(all[0]) * time.Microsecond,
		Max:  time.Duration(all[len(all)-1]) * time.Microsecond,
		P50:  pick(0.50),
		P90:  pick(0.90),
		P99:  pick(0.99),
	}
}

// cluster is a geographic region in the synthetic model. Positions and
// spreads are in pre-calibration "milliseconds" (rescaled afterwards).
type cluster struct {
	name   string
	x, y   float64
	spread float64 // std-dev of site placement around the center
	weight float64 // fraction of sites placed in this cluster
}

// synthClusters approximates the continental structure of the King data.
// Centers sit far apart relative to the intra-cluster spread, modelling
// the oceans between continents: without that separation, proximity-only
// overlays would not partition the way the paper observes (Figure 6,
// C_rand = 0).
var synthClusters = []cluster{
	{name: "north-america", x: 0, y: 0, spread: 11, weight: 0.35},
	{name: "europe", x: 130, y: 40, spread: 9, weight: 0.30},
	{name: "asia", x: 300, y: 85, spread: 13, weight: 0.20},
	{name: "south-america", x: 55, y: 220, spread: 10, weight: 0.08},
	{name: "oceania", x: 360, y: 230, spread: 8, weight: 0.07},
}

// Synthesize generates a King-like latency matrix over n sites,
// deterministic in seed, calibrated to KingMeanOneWay / KingMaxOneWay.
func Synthesize(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	type site struct {
		x, y   float64
		access float64 // per-site last-mile delay, ms
	}
	sites := make([]site, n)
	regions := make([]int16, n)
	for i := range sites {
		ci := pickCluster(rng)
		c := synthClusters[ci]
		regions[i] = int16(ci)
		sites[i] = site{
			x:      c.x + rng.NormFloat64()*c.spread,
			y:      c.y + rng.NormFloat64()*c.spread,
			access: rng.ExpFloat64() * 2, // mean 2 ms last-mile
		}
	}
	m := NewMatrix(n)
	m.regions = regions
	var sum float64
	var pairs int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := sites[i].x-sites[j].x, sites[i].y-sites[j].y
			base := math.Sqrt(dx*dx+dy*dy) + sites[i].access + sites[j].access
			// Per-pair jitter models route inefficiency; it is what
			// produces triangle-inequality violations.
			jitter := 1 + 0.15*rng.Float64()
			ms := base * jitter
			m.us[tri(i, j)] = int32(ms * 1000)
			sum += ms
			pairs++
		}
	}
	// Rescale the mean to the King mean, then clamp to [minOneWay, KingMaxOneWay].
	mean := sum / float64(pairs)
	scale := float64(KingMeanOneWay/time.Millisecond) / mean
	minUS := int32(minOneWay / time.Microsecond)
	maxUS := int32(KingMaxOneWay / time.Microsecond)
	for k, v := range m.us {
		if v == 0 {
			continue
		}
		s := int32(float64(v) * scale)
		if s < minUS {
			s = minUS
		}
		if s > maxUS {
			s = maxUS
		}
		m.us[k] = s
	}
	return m
}

func pickCluster(rng *rand.Rand) int {
	r := rng.Float64()
	acc := 0.0
	for i, c := range synthClusters {
		acc += c.weight
		if r < acc {
			return i
		}
	}
	return len(synthClusters) - 1
}

// Save writes the matrix in a plain text format: a header line "sites N"
// followed by one line per ordered pair "i j microseconds" for i<j.
func (m *Matrix) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "sites %d\n", m.n); err != nil {
		return err
	}
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			if _, err := fmt.Fprintf(bw, "%d %d %d\n", i, j, m.us[tri(i, j)]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load reads a matrix in the format written by Save.
func Load(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("latency: empty input")
	}
	var n int
	if _, err := fmt.Sscanf(sc.Text(), "sites %d", &n); err != nil {
		return nil, fmt.Errorf("latency: bad header %q: %w", sc.Text(), err)
	}
	if n <= 0 {
		return nil, fmt.Errorf("latency: invalid site count %d", n)
	}
	m := NewMatrix(n)
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("latency: line %d: want 3 fields, got %d", line, len(fields))
		}
		i, err1 := strconv.Atoi(fields[0])
		j, err2 := strconv.Atoi(fields[1])
		us, err3 := strconv.ParseInt(fields[2], 10, 32)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("latency: line %d: malformed entry", line)
		}
		if i < 0 || i >= n || j < 0 || j >= n {
			return nil, fmt.Errorf("latency: line %d: site index out of range", line)
		}
		if i != j { // a diagonal line carries nothing: OneWay(i, i) is LocalOneWay
			m.us[tri(i, j)] = int32(us)
		}
	}
	return m, sc.Err()
}

// sortInt32 sorts in place (avoids a sort.Slice closure allocation on the
// hot path of Stats for large matrices).
func sortInt32(a []int32) {
	if len(a) < 2 {
		return
	}
	// Simple radix-free quicksort via sort is fine; use insertion for tiny.
	quickInt32(a)
}

func quickInt32(a []int32) {
	for len(a) > 12 {
		p := medianOfThree(a)
		i, j := 0, len(a)-1
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if j < len(a)-i {
			quickInt32(a[:j+1])
			a = a[i:]
		} else {
			quickInt32(a[i:])
			a = a[:j+1]
		}
	}
	for i := 1; i < len(a); i++ {
		for k := i; k > 0 && a[k] < a[k-1]; k-- {
			a[k], a[k-1] = a[k-1], a[k]
		}
	}
}

func medianOfThree(a []int32) int32 {
	lo, mid, hi := a[0], a[len(a)/2], a[len(a)-1]
	if lo > mid {
		lo, mid = mid, lo
	}
	if mid > hi {
		mid = hi
	}
	if lo > mid {
		mid = lo
	}
	return mid
}
