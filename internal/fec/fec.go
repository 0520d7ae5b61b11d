// Package fec provides the systematic erasure coder behind GoCast's
// coopcast dissemination mode (DESIGN.md §13): a payload is split into K
// source symbols of a fixed size plus R repair symbols, and any K of the
// N = K+R symbols reconstruct the payload. The protocol pushes different
// symbols down different tree links and repairs per-symbol over gossip, so
// the coder's job is purely local: deterministic Encode on the sender,
// order-insensitive Reconstruct on receivers.
//
// The coder is RS: a Reed-Solomon code over GF(256) whose parity rows form
// a Cauchy matrix, which makes the code MDS (every K×K submatrix of the
// generator is invertible, so *any* K symbols decode) for any
// K+R <= MaxSymbols.
//
// The package is independent of internal/core; core imports it.
package fec

import (
	"errors"
	"fmt"
	"sync"
)

// MaxSymbols bounds K+R: the Cauchy construction indexes symbols by field
// elements of GF(256), so at most 256 distinct symbols exist per message.
// Protocol bitmaps (4×uint64) assume the same bound.
const MaxSymbols = 256

var (
	// ErrShortSet reports fewer than K symbols available for decoding.
	ErrShortSet = errors.New("fec: fewer than K symbols available")
	// ErrBadParams reports an invalid (K, R, SymbolSize) combination.
	ErrBadParams = errors.New("fec: invalid coding parameters")
	// ErrBadSymbol reports a symbol whose length differs from SymbolSize.
	ErrBadSymbol = errors.New("fec: symbol has wrong length")
)

// Params fixes one message's coding geometry.
type Params struct {
	// K is the number of source symbols (the decode threshold).
	K int
	// R is the number of repair symbols.
	R int
	// SymbolSize is the byte length of every symbol; the last source
	// symbol is zero-padded to it.
	SymbolSize int
}

// N is the total symbol count K+R.
func (p Params) N() int { return p.K + p.R }

// Valid reports whether the geometry is usable.
func (p Params) Valid() bool {
	return p.K >= 1 && p.R >= 0 && p.SymbolSize >= 1 && p.K+p.R <= MaxSymbols
}

// SymbolSizeFor returns the canonical symbol size for a payload split into
// k source symbols: ceil(payloadLen/k). Sender and receivers derive the
// same value from (payloadLen, K) carried on the wire, so the symbol size
// itself never needs to be transmitted.
func SymbolSizeFor(payloadLen, k int) int {
	if k <= 0 {
		return 0
	}
	return (payloadLen + k - 1) / k
}

// ParamsFor derives coding parameters for a payload: K = ceil(len/size)
// source symbols of roughly the requested size, clamped so K+repair fits
// MaxSymbols (very large payloads get proportionally larger symbols), and
// SymbolSize recomputed canonically from the final K.
func ParamsFor(payloadLen, symbolSize, repair int) Params {
	if symbolSize < 1 {
		symbolSize = 1
	}
	if repair < 0 {
		repair = 0
	}
	if repair > MaxSymbols-1 {
		repair = MaxSymbols - 1
	}
	k := (payloadLen + symbolSize - 1) / symbolSize
	if k < 1 {
		k = 1
	}
	if k+repair > MaxSymbols {
		k = MaxSymbols - repair
	}
	return Params{K: k, R: repair, SymbolSize: SymbolSizeFor(payloadLen, k)}
}

// Join concatenates the K source symbols back into the original payload
// of the given length. Symbols 0..K-1 must be non-nil (call Reconstruct
// first).
func Join(symbols [][]byte, p Params, payloadLen int) []byte {
	out := make([]byte, 0, payloadLen)
	for i := 0; i < p.K && len(out) < payloadLen; i++ {
		rest := payloadLen - len(out)
		s := symbols[i]
		if rest < len(s) {
			s = s[:rest]
		}
		out = append(out, s...)
	}
	return out
}

// split cuts the payload into K source symbols of SymbolSize. All but the
// last alias the payload; the last is copied so it can be zero-padded.
func split(payload []byte, p Params) ([][]byte, error) {
	if len(payload) > p.K*p.SymbolSize {
		return nil, fmt.Errorf("%w: payload %d bytes exceeds K*SymbolSize %d",
			ErrBadParams, len(payload), p.K*p.SymbolSize)
	}
	out := make([][]byte, p.N())
	for i := 0; i < p.K; i++ {
		lo := i * p.SymbolSize
		hi := lo + p.SymbolSize
		if hi <= len(payload) {
			out[i] = payload[lo:hi:hi]
			continue
		}
		s := make([]byte, p.SymbolSize)
		if lo < len(payload) {
			copy(s, payload[lo:])
		}
		out[i] = s
	}
	return out, nil
}

// RS is the Cauchy Reed-Solomon coder over GF(256). Repair row i is
// parity[i][j] = 1/(x_i ⊕ y_j) with x_i = K+i and y_j = j: the x and y
// element sets are disjoint, so the matrix is Cauchy and every square
// submatrix of [I; parity] is invertible — the MDS property the coopcast
// protocol relies on ("any K of N symbols reconstruct").
//
// An RS is stateless after construction apart from decode working memory,
// which is recycled through a sync.Pool, so the coder stays safe for
// concurrent use while steady-state Reconstruct allocates
// only the recovered symbols themselves (one slab per call).
type RS struct {
	p       Params
	parity  [][]byte  // R rows × K cols
	scratch sync.Pool // *rsScratch
}

// rsScratch is one decode's reusable working set, sized once per coder
// geometry: at most R sources can be missing (more is ErrShortSet), so
// every piece is R-bounded.
type rsScratch struct {
	miss []int    // missing source indexes
	reps []int    // repair indexes drafted into the system
	acc  [][]byte // per-drafted-repair accumulator, SymbolSize each
	mat  []byte   // m×m Cauchy submatrix, mutated by the inversion
	inv  []byte   // its inverse
}

// NewRS builds the coder for one geometry.
func NewRS(p Params) (*RS, error) {
	if !p.Valid() {
		return nil, fmt.Errorf("%w: K=%d R=%d SymbolSize=%d", ErrBadParams, p.K, p.R, p.SymbolSize)
	}
	rs := &RS{p: p, parity: make([][]byte, p.R)}
	for i := 0; i < p.R; i++ {
		row := make([]byte, p.K)
		for j := 0; j < p.K; j++ {
			row[j] = gfInv(byte(p.K+i) ^ byte(j))
		}
		rs.parity[i] = row
	}
	rs.scratch.New = func() any {
		sc := &rsScratch{
			miss: make([]int, 0, p.R),
			reps: make([]int, 0, p.R),
			acc:  make([][]byte, p.R),
			mat:  make([]byte, p.R*p.R),
			inv:  make([]byte, p.R*p.R),
		}
		for i := range sc.acc {
			sc.acc[i] = make([]byte, p.SymbolSize)
		}
		return sc
	}
	return rs, nil
}

// Params returns the coder's geometry.
func (rs *RS) Params() Params { return rs.p }

// Encode splits the payload into K source symbols (the last one
// zero-padded) and computes R repair symbols, returning all N in index
// order. Source symbols alias the payload where possible.
func (rs *RS) Encode(payload []byte) ([][]byte, error) {
	syms, err := split(payload, rs.p)
	if err != nil {
		return nil, err
	}
	for i := 0; i < rs.p.R; i++ {
		rep := make([]byte, rs.p.SymbolSize)
		for j := 0; j < rs.p.K; j++ {
			mulAddRow(rep, syms[j], rs.parity[i][j])
		}
		syms[rs.p.K+i] = rep
	}
	return syms, nil
}

// Reconstruct fills every nil slot of an N-length symbol vector in place,
// given at least K non-nil symbols. Non-nil symbols are not modified.
func (rs *RS) Reconstruct(symbols [][]byte) error {
	p := rs.p
	if len(symbols) != p.N() {
		return fmt.Errorf("%w: got %d slots, want %d", ErrBadParams, len(symbols), p.N())
	}
	have := 0
	missingSrc := 0
	for i, s := range symbols {
		if s == nil {
			if i < p.K {
				missingSrc++
			}
			continue
		}
		if len(s) != p.SymbolSize {
			return fmt.Errorf("%w: symbol %d is %d bytes, want %d", ErrBadSymbol, i, len(s), p.SymbolSize)
		}
		have++
	}
	if have < p.K {
		return fmt.Errorf("%w: have %d, K=%d", ErrShortSet, have, p.K)
	}
	if missingSrc > 0 {
		if err := rs.solveSources(symbols); err != nil {
			return err
		}
	}
	// With all sources present, missing repair symbols are re-derived by
	// straight encoding.
	for i := 0; i < p.R; i++ {
		if symbols[p.K+i] != nil {
			continue
		}
		rep := make([]byte, p.SymbolSize)
		for j := 0; j < p.K; j++ {
			mulAddRow(rep, symbols[j], rs.parity[i][j])
		}
		symbols[p.K+i] = rep
	}
	return nil
}

// solveSources recovers the missing source symbols. Rather than
// eliminating the full K×K system of received symbols, it subtracts every
// present source's contribution from m received repair symbols (m = the
// number of missing sources, at most R) and solves the residual m×m
// system restricted to the missing columns — the work that used to be
// O(K²·SymbolSize) with K row allocations is O((K+m)·m·SymbolSize) with
// pooled scratch. The m×m matrix is a square submatrix of the Cauchy
// parity block, hence invertible.
func (rs *RS) solveSources(symbols [][]byte) error {
	p := rs.p
	sc := rs.scratch.Get().(*rsScratch)
	defer rs.scratch.Put(sc)
	miss := sc.miss[:0]
	for j := 0; j < p.K; j++ {
		if symbols[j] == nil {
			miss = append(miss, j)
		}
	}
	m := len(miss)
	reps := sc.reps[:0]
	for i := 0; i < p.R && len(reps) < m; i++ {
		if symbols[p.K+i] != nil {
			reps = append(reps, i)
		}
	}
	if len(reps) < m {
		// Unreachable after Reconstruct's have >= K check; kept as a guard.
		return fmt.Errorf("%w: %d sources missing, %d repairs held", ErrShortSet, m, len(reps))
	}
	// acc[ri] = repair_{reps[ri]} ⊕ Σ_{present j} parity[reps[ri]][j]·src_j:
	// what the missing sources must still account for.
	for ri, i := range reps {
		acc := sc.acc[ri]
		copy(acc, symbols[p.K+i])
		row := rs.parity[i]
		for j := 0; j < p.K; j++ {
			if symbols[j] != nil {
				mulAddRow(acc, symbols[j], row[j])
			}
		}
	}
	mat, inv := sc.mat[:m*m], sc.inv[:m*m]
	for ri, i := range reps {
		for ci, j := range miss {
			mat[ri*m+ci] = rs.parity[i][j]
		}
	}
	if err := gfInvertMatrix(mat, inv, m); err != nil {
		return err
	}
	// One slab for all recovered symbols; full-slice expressions keep a
	// later append on one from clobbering its neighbor.
	slab := make([]byte, m*p.SymbolSize)
	for ci, j := range miss {
		out := slab[ci*p.SymbolSize : (ci+1)*p.SymbolSize : (ci+1)*p.SymbolSize]
		for ri := range reps {
			mulAddRow(out, sc.acc[ri], inv[ci*m+ri])
		}
		symbols[j] = out
	}
	sc.miss, sc.reps = miss, reps
	return nil
}

// gfInvertMatrix inverts the n×n row-major matrix mat into inv by
// Gauss-Jordan elimination, destroying mat.
func gfInvertMatrix(mat, inv []byte, n int) error {
	for i := range inv {
		inv[i] = 0
	}
	for i := 0; i < n; i++ {
		inv[i*n+i] = 1
	}
	for col := 0; col < n; col++ {
		piv := -1
		for r := col; r < n; r++ {
			if mat[r*n+col] != 0 {
				piv = r
				break
			}
		}
		if piv < 0 {
			return fmt.Errorf("fec: singular decode matrix at column %d", col)
		}
		if piv != col {
			for j := 0; j < n; j++ {
				mat[col*n+j], mat[piv*n+j] = mat[piv*n+j], mat[col*n+j]
				inv[col*n+j], inv[piv*n+j] = inv[piv*n+j], inv[col*n+j]
			}
		}
		if c := mat[col*n+col]; c != 1 {
			ic := gfInv(c)
			for j := 0; j < n; j++ {
				mat[col*n+j] = gfMul(mat[col*n+j], ic)
				inv[col*n+j] = gfMul(inv[col*n+j], ic)
			}
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			c := mat[r*n+col]
			if c == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				mat[r*n+j] ^= gfMul(c, mat[col*n+j])
				inv[r*n+j] ^= gfMul(c, inv[col*n+j])
			}
		}
	}
	return nil
}
