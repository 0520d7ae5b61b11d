package latency

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// benchMatrix is the matrix the benchmark's simulated workloads run on.
func benchMatrix() *Matrix { return Synthesize(512, 424242) }

// randomMatrix is an unlabeled matrix (like one from Load) with
// uniformly random latencies in (0, 200 ms].
func randomMatrix(n int, seed int64) *Matrix {
	m := NewMatrix(n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, time.Duration(1+rng.Intn(200000))*time.Microsecond)
		}
	}
	return m
}

// shardNodes returns each shard's node load (load nil = one node per
// site).
func shardNodes(siteShard []int, minOut []time.Duration, load []int) []int {
	nodes := make([]int, len(minOut))
	for site, s := range siteShard {
		if load == nil {
			nodes[s]++
		} else {
			nodes[s] += load[site]
		}
	}
	return nodes
}

// checkPartition verifies the invariants every multi-shard result must
// hold: shard numbers cover 0..k-1 with no shard empty, numbering is
// canonical (ascending minimum site), and minOut[s] is the brute-force
// minimum over the one-way latencies from shard s to any other shard.
func checkPartition(t *testing.T, m *Matrix, siteShard []int, minOut []time.Duration) {
	t.Helper()
	k := len(minOut)
	if len(siteShard) != m.Sites() {
		t.Fatalf("siteShard has %d entries, want %d", len(siteShard), m.Sites())
	}
	first := make([]int, k)
	for s := range first {
		first[s] = -1
	}
	for site, s := range siteShard {
		if s < 0 || s >= k {
			t.Fatalf("site %d on shard %d, want [0,%d)", site, s, k)
		}
		if first[s] < 0 {
			first[s] = site
		}
	}
	for s := range first {
		if first[s] < 0 {
			t.Fatalf("shard %d of %d is empty", s, k)
		}
		if s > 0 && first[s] < first[s-1] {
			t.Fatalf("shard numbering not canonical: shard %d starts at site %d, shard %d at %d",
				s-1, first[s-1], s, first[s])
		}
	}
	if k == 1 {
		return
	}
	for s := 0; s < k; s++ {
		want := time.Duration(-1)
		for i := 0; i < m.Sites(); i++ {
			for j := 0; j < m.Sites(); j++ {
				if siteShard[i] != s || siteShard[j] == s {
					continue
				}
				if d := m.OneWay(i, j); want < 0 || d < want {
					want = d
				}
			}
		}
		if minOut[s] != want {
			t.Errorf("minOut[%d] = %v, brute force %v", s, minOut[s], want)
		}
	}
}

func TestPartitionMinOutMatchesBruteForce(t *testing.T) {
	for _, m := range []*Matrix{Synthesize(120, 3), Synthesize(300, 17), randomMatrix(50, 5)} {
		for want := 2; want <= 7; want++ {
			siteShard, minOut := Partition(m, want, nil)
			if len(minOut) < 2 {
				t.Fatalf("%d sites, want %d: fell back to one shard", m.Sites(), want)
			}
			checkPartition(t, m, siteShard, minOut)
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	for want := 2; want <= 6; want++ {
		a, aOut := Partition(benchMatrix(), want, nil)
		b, bOut := Partition(benchMatrix(), want, nil)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(aOut, bOut) {
			t.Fatalf("want %d: two partitions of the same matrix differ", want)
		}
	}
}

// TestPartitionBalancesBenchMatrix pins the load balance on the
// benchmark's matrix: merging the closest regions put 465 of 512 sites
// on one of two shards; whole-region balancing splits them evenly while
// keeping an ocean-sized lookahead.
func TestPartitionBalancesBenchMatrix(t *testing.T) {
	m := benchMatrix()
	siteShard, minOut := Partition(m, 2, nil)
	checkPartition(t, m, siteShard, minOut)
	if len(minOut) != 2 {
		t.Fatalf("2 shards wanted, got %d", len(minOut))
	}
	nodes := shardNodes(siteShard, minOut, nil)
	if most := max(nodes[0], nodes[1]); most*100 > 55*m.Sites() {
		t.Errorf("2 shards: largest holds %d of %d nodes, want <= 55%%", most, m.Sites())
	}
	if floor := min(minOut[0], minOut[1]); floor < 40*time.Millisecond {
		t.Errorf("2 shards: cross-shard floor %v, want >= 40ms", floor)
	}

	regionSize := map[int]int{}
	largestRegion := 0
	for i := 0; i < m.Sites(); i++ {
		regionSize[m.Region(i)]++
		largestRegion = max(largestRegion, regionSize[m.Region(i)])
	}
	siteShard, minOut = Partition(m, 4, nil)
	checkPartition(t, m, siteShard, minOut)
	nodes = shardNodes(siteShard, minOut, nil)
	for s, n := range nodes {
		if n > largestRegion {
			t.Errorf("4 shards: shard %d holds %d nodes, more than the largest region (%d)", s, n, largestRegion)
		}
	}
}

// optimalHeaviest is the least possible heaviest-shard load over every
// assignment of m's regions to k non-empty shards, by brute force.
func optimalHeaviest(m *Matrix, k int, load []int) int {
	regionLoad := map[int]int{}
	for i := 0; i < m.Sites(); i++ {
		regionLoad[m.Region(i)] += load[i]
	}
	r := len(regionLoad)
	best := -1
	assign := make([]int, r)
	for {
		shardLoad := make([]int, k)
		used := make([]bool, k)
		for reg, s := range assign {
			shardLoad[s] += regionLoad[reg]
			used[s] = true
		}
		full := true
		heaviest := 0
		for s := range used {
			full = full && used[s]
			heaviest = max(heaviest, shardLoad[s])
		}
		if full && (best < 0 || heaviest < best) {
			best = heaviest
		}
		i := 0
		for ; i < r; i++ {
			if assign[i]++; assign[i] < k {
				break
			}
			assign[i] = 0
		}
		if i == r {
			return best
		}
	}
}

// TestPartitionBalancesByNodes gives the partition a matrix with more
// sites than nodes: 200 nodes on the 512-site matrix leave sites
// 200..511 empty, and balancing by site count would put 75 of them on
// one of 3 shards. The heaviest shard must carry the brute-force optimum
// of nodes.
func TestPartitionBalancesByNodes(t *testing.T) {
	m := benchMatrix()
	const nodes = 200
	load := make([]int, m.Sites())
	for i := 0; i < nodes; i++ {
		load[i%m.Sites()]++
	}
	for want := 2; want <= 4; want++ {
		siteShard, minOut := Partition(m, want, load)
		checkPartition(t, m, siteShard, minOut)
		perShard := shardNodes(siteShard, minOut, load)
		heaviest := 0
		for _, n := range perShard {
			heaviest = max(heaviest, n)
		}
		if opt := optimalHeaviest(m, want, load); heaviest != opt {
			t.Errorf("want %d: heaviest shard carries %d of %d nodes, optimum %d (per shard %v)",
				want, heaviest, nodes, opt, perShard)
		}
	}
}

// TestPartitionGreedyManyRegions covers matrices with more labelled
// regions than the exhaustive search takes: the greedy placement must
// still fill every shard and stay within one region of perfect balance.
func TestPartitionGreedyManyRegions(t *testing.T) {
	m := Synthesize(240, 11)
	for i := range m.regions {
		m.regions[i] = int16(i % (maxExactGroups + 4))
	}
	for want := 2; want <= maxExactGroups+3; want++ {
		siteShard, minOut := Partition(m, want, nil)
		checkPartition(t, m, siteShard, minOut)
		if len(minOut) != want {
			t.Fatalf("want %d: got %d shards", want, len(minOut))
		}
		perShard := shardNodes(siteShard, minOut, nil)
		heaviest := 0
		for _, n := range perShard {
			heaviest = max(heaviest, n)
		}
		regionSize := m.Sites() / (maxExactGroups + 4)
		if bound := (m.Sites()+want-1)/want + regionSize; heaviest > bound {
			t.Errorf("want %d: heaviest shard %d sites, want <= %d", want, heaviest, bound)
		}
	}
}

// TestPartitionSplitPathUnchanged pins the partitions that need no
// merging — as many shards as regions, more than regions, and unlabeled
// matrices — to the output of the previous implementation.
func TestPartitionSplitPathUnchanged(t *testing.T) {
	hash := func(siteShard []int, minOut []time.Duration) uint64 {
		h := fnv.New64a()
		var b [8]byte
		for _, s := range siteShard {
			binary.LittleEndian.PutUint64(b[:], uint64(s))
			h.Write(b[:])
		}
		for _, d := range minOut {
			binary.LittleEndian.PutUint64(b[:], uint64(d))
			h.Write(b[:])
		}
		return h.Sum64()
	}
	unlabeled := randomMatrix(60, 9)
	for _, c := range []struct {
		m    *Matrix
		want int
		hash uint64
	}{
		{benchMatrix(), 5, 0x73d66d86bd49bcfd},
		{benchMatrix(), 8, 0x4aeec8672d080cb5},
		{benchMatrix(), 16, 0xb3e4eb6034987ad},
		{Synthesize(200, 7), 6, 0x80a2da771ef1b0b6},
		{unlabeled, 2, 0x8a07840c1a7134f5},
		{unlabeled, 3, 0xc6a89fb7728775b7},
		{unlabeled, 7, 0x894b264746df31dd},
	} {
		siteShard, minOut := Partition(c.m, c.want, nil)
		if got := hash(siteShard, minOut); got != c.hash {
			t.Errorf("%d sites, want %d: partition hash %#x, previously %#x (minOut %v)",
				c.m.Sites(), c.want, got, c.hash, minOut)
		}
	}
}

func TestPartitionDegenerateFallsBack(t *testing.T) {
	for _, m := range []*Matrix{NewMatrix(1), NewMatrix(4)} {
		siteShard, minOut := Partition(m, 4, nil)
		if len(minOut) != 1 || minOut[0] != 0 {
			t.Errorf("%d-site degenerate matrix: minOut %v, want [0]", m.Sites(), minOut)
		}
		for site, s := range siteShard {
			if s != 0 {
				t.Errorf("%d-site degenerate matrix: site %d on shard %d", m.Sites(), site, s)
			}
		}
	}
}
