package fec

// GF(256) arithmetic over the AES-adjacent primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d). Scalar operations (matrix setup and
// inversion) use log/exp tables: two lookups and an add per multiply, one
// lookup per inverse. The byte-rate kernel, mulAddRow, uses a full product
// table instead: gfMulTable[c] is the 256-byte row of c·v for every v, so a
// symbol is coded with one lookup per byte and no zero test. All tables are
// built once at init; the product table is 64 KiB, of which one coefficient
// row (256 bytes, four cache lines) is hot per mulAddRow call.

const gfPoly = 0x11d

var (
	gfExp      [512]byte // doubled so mul can skip the mod-255 reduction
	gfLog      [256]byte
	gfMulTable [256][256]byte // gfMulTable[a][b] = a·b
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for a := range gfMulTable {
		for b := range gfMulTable[a] {
			gfMulTable[a][b] = gfMul(byte(a), byte(b))
		}
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a non-zero element.
func gfInv(a byte) byte {
	return gfExp[255-int(gfLog[a])]
}

// gfDiv divides a by a non-zero b.
func gfDiv(a, b byte) byte {
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// mulAddRow accumulates dst ^= c * src byte-wise. c == 0 is a no-op and
// c == 1 a plain XOR; every other coefficient is one product-table lookup
// per byte, unrolled by eight so the bounds checks are paid once per block.
func mulAddRow(dst, src []byte, c byte) {
	switch c {
	case 0:
		return
	case 1:
		for i, v := range src {
			dst[i] ^= v
		}
	default:
		mt := &gfMulTable[c]
		dst = dst[:len(src)]
		for len(src) >= 8 {
			s, d := src[:8:8], dst[:8:8]
			d[0] ^= mt[s[0]]
			d[1] ^= mt[s[1]]
			d[2] ^= mt[s[2]]
			d[3] ^= mt[s[3]]
			d[4] ^= mt[s[4]]
			d[5] ^= mt[s[5]]
			d[6] ^= mt[s[6]]
			d[7] ^= mt[s[7]]
			src, dst = src[8:], dst[8:]
		}
		for i, v := range src {
			dst[i] ^= mt[v]
		}
	}
}
