package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"gocast/bench/internal/quantile"
	"gocast/internal/core"
	"gocast/internal/scenario"
)

// percentile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample by linear interpolation between closest ranks; 0 for an empty
// sample.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sortedCopy returns vals in ascending order without touching the input.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func median(vals []float64) float64 { return percentile(sortedCopy(vals), 0.5) }

// quartiles is quantile.Quartiles, shared with benchdiff.
func quartiles(vals []float64) (q1, q2, q3 float64) { return quantile.Quartiles(vals) }

// tailQuantile is the highest quantile of an n-sample distribution that
// still has at least ten samples beyond it (the choosing-metrics rule for
// the reportable tail); below twenty samples it falls back to the median.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return 1 - 10/float64(n)
}

// poissonSchedule returns the arrival offsets of a Poisson process of the
// given rate (events per second) over [0, span), conditioned on its expected
// count: exactly round(rate*span) arrivals at independent uniform instants,
// in ascending order. Gaps are exponential-like and bursts happen, as in
// any Poisson stream, but every seed offers the same number of messages,
// so per-message costs are not divided by a count that varies with the seed.
func poissonSchedule(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	n := int(rate*span.Seconds() + 0.5)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// subSeed derives an independent seed for the k-th stream of a kind from
// the master seed, through the repository's own seed fan-out, so iterations,
// boots and traffic schedules never share a random stream.
func subSeed(seed int64, label string, k int) int64 {
	return scenario.SubSeed(seed, label+"/"+strconv.Itoa(k))
}

// ratio is a/b, or 0 when b is 0 (a layer that did nothing).
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// digest32 folds a stream of 64-bit words into an FNV-1a 32-bit digest.
// The netsim result digest is built from it: small enough to be carried
// exactly in a float64 metric value.
type digest32 struct {
	h hash.Hash32
	b [8]byte
}

func newDigest32() *digest32 { return &digest32{h: fnv.New32a()} }

func (d *digest32) add(v uint64) {
	binary.LittleEndian.PutUint64(d.b[:], v)
	d.h.Write(d.b[:])
}

func (d *digest32) sum() uint32 { return d.h.Sum32() }

// setCoreRatios reports the useful-outcome ratios of the protocol counters
// summed over a workload's nodes.
func (r *result) setCoreRatios(c core.Counters) {
	r.set("core.duplicate_share", ratio(c.Duplicates, c.PayloadsRecv+c.Duplicates))
	r.set("core.pull_share", ratio(c.PullsServed, c.Delivered))
	r.set("core.gossips_per_delivery", ratio(c.GossipsSent, c.Delivered))
	r.set("core.symbol_dup_share", ratio(c.SymbolDups, c.SymbolsRecv+c.SymbolDups))
	r.set("core.fec_decode_failures", float64(c.FECDecodeFailures))
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
