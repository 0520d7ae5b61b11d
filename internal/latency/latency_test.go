package latency

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSynthesizeCalibration(t *testing.T) {
	m := Synthesize(400, 1)
	st := m.Stats()
	// Mean should be close to the King mean (clamping shifts it slightly).
	lo, hi := 75*time.Millisecond, 105*time.Millisecond
	if st.Mean < lo || st.Mean > hi {
		t.Errorf("mean one-way = %v, want within [%v, %v]", st.Mean, lo, hi)
	}
	if st.Max > KingMaxOneWay {
		t.Errorf("max one-way = %v, want <= %v", st.Max, KingMaxOneWay)
	}
	if st.Min < time.Millisecond {
		t.Errorf("min one-way = %v, want >= 1ms", st.Min)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, b := Synthesize(50, 42), Synthesize(50, 42)
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			if a.OneWay(i, j) != b.OneWay(i, j) {
				t.Fatalf("same-seed matrices differ at (%d,%d)", i, j)
			}
		}
	}
	c := Synthesize(50, 43)
	same := true
	for i := 0; i < 50 && same; i++ {
		for j := i + 1; j < 50; j++ {
			if a.OneWay(i, j) != c.OneWay(i, j) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("different seeds produced identical matrices")
	}
}

func TestSymmetryAndDiagonal(t *testing.T) {
	m := Synthesize(80, 7)
	for i := 0; i < 80; i++ {
		if got := m.OneWay(i, i); got != LocalOneWay {
			t.Fatalf("OneWay(%d,%d) = %v, want %v", i, i, got, LocalOneWay)
		}
		for j := i + 1; j < 80; j++ {
			if m.OneWay(i, j) != m.OneWay(j, i) {
				t.Fatalf("asymmetric latency at (%d,%d)", i, j)
			}
		}
	}
}

func TestRTTIsTwiceOneWay(t *testing.T) {
	m := Synthesize(10, 3)
	if m.RTT(1, 2) != 2*m.OneWay(1, 2) {
		t.Fatalf("RTT = %v, want %v", m.RTT(1, 2), 2*m.OneWay(1, 2))
	}
}

// The synthetic model must exhibit geographic clustering: a node's nearest
// handful of peers must be far cheaper than a random peer, i.e.,
// proximity-aware neighbor selection (C_near=5) has something to exploit.
// The paper's Figure 5(b) relies on this: tree links average 15.5 ms versus
// the 91 ms random-pair mean.
func TestClusteringStructure(t *testing.T) {
	const n = 300
	m := Synthesize(n, 9)
	var nearSum, allSum time.Duration
	for i := 0; i < n; i++ {
		var ds []time.Duration
		for j := 0; j < n; j++ {
			if i != j {
				ds = append(ds, m.OneWay(i, j))
			}
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		nearSum += ds[4] // 5th-nearest, the marginal C_near neighbor
		for _, d := range ds {
			allSum += d / n
		}
	}
	near := nearSum / n
	mean := allSum / n
	if near*4 > mean {
		t.Errorf("5th-nearest latency %v not well below mean %v: no clustering", near, mean)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := Synthesize(30, 11)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sites() != m.Sites() {
		t.Fatalf("sites = %d, want %d", got.Sites(), m.Sites())
	}
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			if got.OneWay(i, j) != m.OneWay(i, j) {
				t.Fatalf("loaded matrix differs at (%d,%d)", i, j)
			}
		}
	}
}

// TestTriangleStorageKeepsValues pins the synthesized matrix to the bytes
// Save wrote when the matrix was stored square (SHA-256 of the file for
// 100 sites, seed 424242), checks Save -> Load -> Save reproduces them,
// and checks OneWay and Stats against a square reference read through
// OneWay in both directions.
func TestTriangleStorageKeepsValues(t *testing.T) {
	const n = 100
	m := Synthesize(n, 424242)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	if got := fmt.Sprintf("%x", sha256.Sum256(saved)); got != "5921b2f71a5dd2973de81a36a8f661942c170a5b7004fd8c236d4f30f1909601" {
		t.Fatalf("saved matrix digest %s changed", got)
	}
	back, err := Load(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved) {
		t.Fatalf("Save after Load differs from the original file")
	}
	var all []int32
	var sum int64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if m.OneWay(i, j) != m.OneWay(j, i) || back.OneWay(i, j) != m.OneWay(i, j) {
				t.Fatalf("OneWay(%d,%d) = %v, OneWay(%d,%d) = %v, loaded %v", i, j, m.OneWay(i, j), j, i, m.OneWay(j, i), back.OneWay(i, j))
			}
			if i != j {
				us := int32(m.OneWay(i, j) / time.Microsecond)
				all = append(all, us)
				sum += int64(us)
			}
		}
	}
	sortInt32(all)
	pick := func(q float64) time.Duration {
		return time.Duration(all[int(q*float64(len(all)-1))]) * time.Microsecond
	}
	want := Stats{
		Mean: time.Duration(sum/int64(len(all))) * time.Microsecond,
		Min:  time.Duration(all[0]) * time.Microsecond, Max: time.Duration(all[len(all)-1]) * time.Microsecond,
		P50: pick(0.50), P90: pick(0.90), P99: pick(0.99),
	}
	if got := m.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v over all ordered pairs", got, want)
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "hello 3\n0 1 5\n",
		"zero sites":   "sites 0\n",
		"neg sites":    "sites -4\n",
		"short line":   "sites 3\n0 1\n",
		"out of range": "sites 3\n0 9 100\n",
		"not a number": "sites 3\n0 1 x\n",
	}
	for name, in := range cases {
		if _, err := Load(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("%s: Load accepted malformed input", name)
		}
	}
}

func TestStatsPercentilesOrdered(t *testing.T) {
	m := Synthesize(120, 21)
	st := m.Stats()
	if !(st.Min <= st.P50 && st.P50 <= st.P90 && st.P90 <= st.P99 && st.P99 <= st.Max) {
		t.Fatalf("percentiles out of order: %+v", st)
	}
}

func TestSetUpdatesBothDirections(t *testing.T) {
	m := NewMatrix(4)
	m.Set(1, 3, 25*time.Millisecond)
	if m.OneWay(1, 3) != 25*time.Millisecond || m.OneWay(3, 1) != 25*time.Millisecond {
		t.Fatalf("Set did not update both directions")
	}
}

func TestNewMatrixPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewMatrix(0) should panic")
		}
	}()
	NewMatrix(0)
}

// Property: sortInt32 sorts any slice.
func TestPropertySortInt32(t *testing.T) {
	f := func(v []int32) bool {
		cp := append([]int32(nil), v...)
		sortInt32(cp)
		if !sort.SliceIsSorted(cp, func(i, j int) bool { return cp[i] < cp[j] }) {
			return false
		}
		// Same multiset.
		want := append([]int32(nil), v...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if cp[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: save/load round-trips random matrices.
func TestPropertySaveLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(20)
		m := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, time.Duration(rng.Intn(400_000))*time.Microsecond)
			}
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got.OneWay(i, j) != m.OneWay(i, j) {
					t.Fatalf("trial %d: mismatch at (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

func BenchmarkSynthesize1740(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Synthesize(KingSites, int64(i))
	}
}
