package fec

import (
	"bytes"
	"math/rand"
	"testing"
)

func randPayload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestGFFieldAxioms sanity-checks the table arithmetic: every non-zero
// element has an inverse, and mul distributes over XOR (addition).
func TestGFFieldAxioms(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a*inv(a) = %d for a=%d", got, a)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10000; trial++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity failed for %d,%d,%d", a, b, c)
		}
		if b != 0 && gfMul(gfDiv(a, b), b) != a {
			t.Fatalf("div/mul roundtrip failed for %d,%d", a, b)
		}
	}
}

// TestMulAddRowMatchesGFMul pins the table-driven kernel to the scalar
// definition: every (coefficient, value) pair, and every length around the
// unroll width so the blocked part and the tail both run, on top of a
// non-zero accumulator.
func TestMulAddRowMatchesGFMul(t *testing.T) {
	src := make([]byte, 256)
	for v := range src {
		src[v] = byte(v)
	}
	for c := 0; c < 256; c++ {
		dst := make([]byte, 256)
		for i := range dst {
			dst[i] = byte(i * 31)
		}
		mulAddRow(dst, src, byte(c))
		for v := range src {
			if want := byte(v*31) ^ gfMul(byte(c), byte(v)); dst[v] != want {
				t.Fatalf("mulAddRow c=%d v=%d: got %#x, want %#x", c, v, dst[v], want)
			}
		}
	}
	for n := 0; n <= 17; n++ {
		for _, c := range []byte{0, 1, 2, 0x8e, 0xff} {
			src := randPayload(n, int64(n))
			dst := randPayload(n+3, int64(n)+100) // longer than src: the excess must stay untouched
			want := append([]byte(nil), dst...)
			for i, v := range src {
				want[i] ^= gfMul(c, v)
			}
			mulAddRow(dst, src, c)
			if !bytes.Equal(dst, want) {
				t.Fatalf("mulAddRow len=%d c=%d: got %x, want %x", n, c, dst, want)
			}
		}
	}
}

// TestAnyKOfN is the MDS property the protocol depends on: for a spread of
// geometries, every sampled K-subset of the N symbols reconstructs the
// payload exactly.
func TestAnyKOfN(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, g := range []struct{ k, r, sym int }{
		{1, 1, 64}, // degenerate K=1: every symbol is the payload
		{4, 2, 128},
		{8, 4, 256},
		{13, 3, 37}, // odd sizes exercise padding
		{64, 4, 1024},
		{252, 4, 16}, // K+R at the MaxSymbols bound
	} {
		p := Params{K: g.k, R: g.r, SymbolSize: g.sym}
		rs, err := NewRS(p)
		if err != nil {
			t.Fatalf("NewRS(%+v): %v", p, err)
		}
		// A payload that does not fill the last symbol, exercising padding.
		payloadLen := g.k*g.sym - g.sym/2
		payload := randPayload(payloadLen, int64(g.k))
		full, err := rs.Encode(payload)
		if err != nil {
			t.Fatalf("Encode(%+v): %v", p, err)
		}
		trials := 40
		if p.N() <= 8 {
			trials = 200 // small geometries: hit most subsets
		}
		for trial := 0; trial < trials; trial++ {
			keep := rng.Perm(p.N())[:g.k]
			syms := make([][]byte, p.N())
			for _, i := range keep {
				syms[i] = full[i]
			}
			if err := rs.Reconstruct(syms); err != nil {
				t.Fatalf("Reconstruct(%+v, keep=%v): %v", p, keep, err)
			}
			for i := range syms {
				if !bytes.Equal(syms[i], full[i]) {
					t.Fatalf("geometry %+v keep=%v: symbol %d mismatches", p, keep, i)
				}
			}
			if got := Join(syms, p, payloadLen); !bytes.Equal(got, payload) {
				t.Fatalf("geometry %+v keep=%v: payload mismatches", p, keep)
			}
		}
	}
}

// TestReconstructErrors pins the failure modes: short sets and mis-sized
// symbols are rejected, and received buffers are never mutated.
func TestReconstructErrors(t *testing.T) {
	p := Params{K: 4, R: 2, SymbolSize: 32}
	rs, err := NewRS(p)
	if err != nil {
		t.Fatal(err)
	}
	payload := randPayload(4*32, 3)
	full, err := rs.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}

	short := make([][]byte, p.N())
	short[0], short[5] = full[0], full[5]
	if err := rs.Reconstruct(short); err == nil {
		t.Fatal("Reconstruct with K-1 symbols succeeded")
	}

	bad := make([][]byte, p.N())
	copy(bad, full)
	bad[2] = full[2][:31]
	if err := rs.Reconstruct(bad); err == nil {
		t.Fatal("Reconstruct accepted a mis-sized symbol")
	}

	if _, err := NewRS(Params{K: 200, R: 100, SymbolSize: 1}); err == nil {
		t.Fatal("NewRS accepted K+R > MaxSymbols")
	}
	if _, err := rs.Encode(randPayload(4*32+1, 4)); err == nil {
		t.Fatal("Encode accepted an oversized payload")
	}

	// Received buffers must survive decoding untouched.
	orig := append([]byte(nil), full[4]...)
	syms := make([][]byte, p.N())
	syms[0], syms[1], syms[4], syms[5] = full[0], full[1], full[4], full[5]
	if err := rs.Reconstruct(syms); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full[4], orig) {
		t.Fatal("Reconstruct mutated a received repair symbol")
	}
}

// TestParamsFor pins the geometry derivation both sides of the wire use.
func TestParamsFor(t *testing.T) {
	for _, tc := range []struct {
		payload, symSize, repair int
		wantK, wantSym           int
	}{
		{100, 1024, 2, 1, 100},          // tiny payload: one symbol
		{64 << 10, 1024, 4, 64, 1024},   // exact fit
		{100000, 1024, 4, 98, 1021},     // symbol size re-derived from K
		{10 << 20, 1024, 4, 252, 41611}, // clamped to MaxSymbols-R
		{0, 1024, 4, 1, 0},              // empty payload still valid K
	} {
		p := ParamsFor(tc.payload, tc.symSize, tc.repair)
		if p.K != tc.wantK || p.SymbolSize != tc.wantSym {
			t.Errorf("ParamsFor(%d,%d,%d) = K=%d sym=%d, want K=%d sym=%d",
				tc.payload, tc.symSize, tc.repair, p.K, p.SymbolSize, tc.wantK, tc.wantSym)
		}
		if tc.payload > 0 {
			if p.K*p.SymbolSize < tc.payload {
				t.Errorf("ParamsFor(%d,%d,%d): K*SymbolSize=%d does not cover payload",
					tc.payload, tc.symSize, tc.repair, p.K*p.SymbolSize)
			}
			if p.SymbolSize != SymbolSizeFor(tc.payload, p.K) {
				t.Errorf("ParamsFor(%d,%d,%d): SymbolSize not canonical", tc.payload, tc.symSize, tc.repair)
			}
		}
	}
}

func benchCoder(b *testing.B, payloadLen int, decode bool) {
	p := ParamsFor(payloadLen, 1024, 4)
	rs, err := NewRS(p)
	if err != nil {
		b.Fatal(err)
	}
	payload := randPayload(payloadLen, 1)
	full, err := rs.Encode(payload)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(payloadLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !decode {
			if _, err := rs.Encode(payload); err != nil {
				b.Fatal(err)
			}
			continue
		}
		// Worst realistic case: all R repair symbols needed (R source
		// symbols lost), forcing a full elimination.
		syms := make([][]byte, p.N())
		copy(syms, full)
		for j := 0; j < p.R; j++ {
			syms[j*2] = nil
		}
		if err := rs.Reconstruct(syms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode64K(b *testing.B)  { benchCoder(b, 64<<10, false) }
func BenchmarkEncode256K(b *testing.B) { benchCoder(b, 256<<10, false) }
func BenchmarkDecode64K(b *testing.B)  { benchCoder(b, 64<<10, true) }
func BenchmarkDecode256K(b *testing.B) { benchCoder(b, 256<<10, true) }
