package latency

import (
	"sort"
	"time"
)

// Region returns the geographic cluster label of site i for synthesized
// matrices, or -1 when the matrix carries no placement information
// (NewMatrix / Load).
func (m *Matrix) Region(i int) int {
	if m.regions == nil {
		return -1
	}
	return int(m.regions[i])
}

// Partition groups the matrix's sites into up to want shards for
// conservative parallel simulation, and computes each shard's lookahead
// bound. It returns the site→shard assignment and, per shard, the
// minimum one-way latency from any of the shard's sites to any site
// outside it — the latency floor below which the shard cannot affect
// another shard, i.e. the safe window for independent advancement.
//
// load[i] is the number of simulated nodes placed on site i (nil counts
// one per site); it is what the shards are balanced by, since a shard's
// event count follows its node count and the slowest shard sets the
// pace of every window.
//
// Synthesized matrices are cut along their geographic clusters, which
// is the natural partition: intra-site traffic is LocalOneWay and
// inter-region latencies are bounded well below by the ocean gaps, so
// region cuts maximize the lookahead. When fewer shards are requested
// than regions, whole regions are assigned to shards so that the
// heaviest shard carries the least node load, ties broken by the
// largest cross-shard latency floor (see balanceGroups); when more are
// requested, the largest groups are split around their two most
// distant sites. Unlabeled matrices start as a single group and rely
// purely on distance splitting.
//
// The result is deterministic in the matrix and load alone. The
// effective shard count may be lower than want (few sites, or
// unsplittable groups); degenerate matrices whose cross-shard latency
// floor is not positive collapse to a single shard, for which minOut is
// []{0} — callers must treat a single-shard result as "run
// sequentially".
func Partition(m *Matrix, want int, load []int) (siteShard []int, minOut []time.Duration) {
	if want > m.n {
		want = m.n
	}
	siteShard = make([]int, m.n)
	if want <= 1 {
		return siteShard, []time.Duration{0}
	}

	var groups [][]int
	if m.regions != nil {
		byRegion := map[int16][]int{}
		for i, r := range m.regions {
			byRegion[r] = append(byRegion[r], i)
		}
		labels := make([]int16, 0, len(byRegion))
		for r := range byRegion {
			labels = append(labels, r)
		}
		sort.Slice(labels, func(a, b int) bool { return labels[a] < labels[b] })
		for _, r := range labels {
			groups = append(groups, byRegion[r])
		}
	} else {
		all := make([]int, m.n)
		for i := range all {
			all[i] = i
		}
		groups = [][]int{all}
	}
	for len(groups) < want {
		split, ok := splitWidest(m, groups)
		if !ok {
			break
		}
		groups = split
	}

	// The one pass over site pairs: floor[a*g+b] is the minimum one-way
	// latency between a site of group a and a site of group b.
	g := len(groups)
	groupOf := make([]int, m.n)
	for gi, grp := range groups {
		for _, site := range grp {
			groupOf[site] = gi
		}
	}
	floor := make([]time.Duration, g*g)
	for k := range floor {
		floor[k] = never
	}
	for j := 1; j < m.n; j++ {
		gj := groupOf[j]
		row := m.us[tri(0, j) : tri(0, j)+j] // pairs (i, j), i < j
		for i, us := range row {
			gi := groupOf[i]
			if gi == gj {
				continue
			}
			if d := time.Duration(us) * time.Microsecond; d < floor[gi*g+gj] {
				floor[gi*g+gj] = d
				floor[gj*g+gi] = d
			}
		}
	}

	// shardOf maps each group to a shard; below want groups, one each.
	shardOf := make([]int, g)
	for gi := range shardOf {
		shardOf[gi] = gi
	}
	if g > want {
		groupLoad := make([]int, g)
		for site := 0; site < m.n; site++ {
			if load == nil {
				groupLoad[groupOf[site]]++
			} else {
				groupLoad[groupOf[site]] += load[site]
			}
		}
		shardOf = balanceGroups(groupLoad, floor, want)
	}

	// Canonical shard numbering: ascending minimum site index.
	rank := make([]int, g)
	for s := range rank {
		rank[s] = -1
	}
	shards := 0
	for site := range siteShard {
		s := shardOf[groupOf[site]]
		if rank[s] < 0 {
			rank[s] = shards
			shards++
		}
		siteShard[site] = rank[s]
	}
	if shards == 1 {
		return siteShard, []time.Duration{0}
	}
	minOut = make([]time.Duration, shards)
	for s := range minOut {
		minOut[s] = never
	}
	for a := 0; a < g; a++ {
		for b := 0; b < g; b++ {
			sa := rank[shardOf[a]]
			if sa != rank[shardOf[b]] && floor[a*g+b] < minOut[sa] {
				minOut[sa] = floor[a*g+b]
			}
		}
	}
	for _, d := range minOut {
		if d <= 0 {
			// A zero entry between shards (partially filled Load matrix)
			// leaves no safe window: fall back to one shard.
			return make([]int, m.n), []time.Duration{0}
		}
	}
	return siteShard, minOut
}

func minSite(g []int) int {
	min := g[0]
	for _, s := range g[1:] {
		if s < min {
			min = s
		}
	}
	return min
}

// never stands for "no latency bound yet" in floor minimizations.
const never = time.Duration(1) << 62

// maxExactGroups bounds the exhaustive search in balanceGroups: 8 groups
// into k shards is at most S(8,4) = 1,701 candidates, while synthesized
// matrices have 5 regions (at most S(5,3) = 25).
const maxExactGroups = 8

// balanceGroups assigns g = len(load) groups to k < g shards, every
// shard non-empty, and returns each group's shard. floor is the g×g
// group latency floor table. Up to maxExactGroups groups it searches
// every assignment for the one with the lightest heaviest shard, ties
// broken by the largest cross-shard floor, then by enumeration order;
// beyond that it places groups heaviest first onto the lightest shard.
func balanceGroups(load []int, floor []time.Duration, k int) []int {
	g := len(load)
	if g > maxExactGroups {
		return greedyGroups(load, k)
	}
	cur := make([]int, g)
	best := make([]int, g)
	shardLoad := make([]int, k)
	bestMax, bestFloor := -1, time.Duration(0)
	// Restricted growth strings: group i joins one of the shards opened
	// so far or opens the next, so each set partition appears once.
	var walk func(i, opened int)
	walk = func(i, opened int) {
		if g-i < k-opened {
			return // too few groups left to open every shard
		}
		if i == g {
			heaviest := 0
			for _, l := range shardLoad {
				if l > heaviest {
					heaviest = l
				}
			}
			cross := never
			for a := 0; a < g; a++ {
				for b := a + 1; b < g; b++ {
					if cur[a] != cur[b] && floor[a*g+b] < cross {
						cross = floor[a*g+b]
					}
				}
			}
			if bestMax < 0 || heaviest < bestMax || (heaviest == bestMax && cross > bestFloor) {
				bestMax, bestFloor = heaviest, cross
				copy(best, cur)
			}
			return
		}
		for s := 0; s <= opened && s < k; s++ {
			cur[i] = s
			shardLoad[s] += load[i]
			next := opened
			if s == opened {
				next++
			}
			walk(i+1, next)
			shardLoad[s] -= load[i]
		}
	}
	walk(0, 0)
	return best
}

// greedyGroups places groups heaviest first (ties by index) onto the
// lightest shard (ties by fewest groups, then index), so the first k
// groups open k distinct shards.
func greedyGroups(load []int, k int) []int {
	order := make([]int, len(load))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return load[order[a]] > load[order[b]] })
	shardOf := make([]int, len(load))
	shardLoad := make([]int, k)
	members := make([]int, k)
	for _, gi := range order {
		s := 0
		for t := 1; t < k; t++ {
			if shardLoad[t] < shardLoad[s] || (shardLoad[t] == shardLoad[s] && members[t] < members[s]) {
				s = t
			}
		}
		shardOf[gi] = s
		shardLoad[s] += load[gi]
		members[s]++
	}
	return shardOf
}

// splitWidest splits the largest group (>= 2 sites) around its two most
// distant sites, assigning every site to the nearer pole. Returns false
// when no group can be split further.
func splitWidest(m *Matrix, groups [][]int) ([][]int, bool) {
	gi := -1
	for i, g := range groups {
		if len(g) < 2 {
			continue
		}
		if gi < 0 || len(g) > len(groups[gi]) ||
			(len(g) == len(groups[gi]) && minSite(g) < minSite(groups[gi])) {
			gi = i
		}
	}
	if gi < 0 {
		return groups, false
	}
	g := groups[gi]
	pa, pb := g[0], g[1]
	var widest time.Duration = -1
	for x := 0; x < len(g); x++ {
		for y := x + 1; y < len(g); y++ {
			if d := m.OneWay(g[x], g[y]); d > widest {
				widest, pa, pb = d, g[x], g[y]
			}
		}
	}
	var left, right []int
	for _, s := range g {
		// OneWay(s, s) is LocalOneWay, below any cross-site latency, so
		// each pole lands on its own side and both halves are non-empty.
		if m.OneWay(s, pa) <= m.OneWay(s, pb) {
			left = append(left, s)
		} else {
			right = append(right, s)
		}
	}
	out := make([][]int, 0, len(groups)+1)
	for i, grp := range groups {
		if i == gi {
			continue
		}
		out = append(out, grp)
	}
	return append(out, left, right), true
}
