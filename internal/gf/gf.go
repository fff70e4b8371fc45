// Package gf implements arithmetic over the binary extension field GF(2^8).
//
// The erasure codes in this module operate symbol-wise over GF(2^8): a
// storage object is striped into k blocks and every byte position is an
// independent codeword symbol. GF(2^8) supports Cauchy constructions with
// n+k <= 256, which covers all configurations studied in the SEC paper.
//
// Addition in characteristic-2 fields is XOR, so Add and Sub coincide.
// Multiplication uses a full 64 KiB product table; division and inversion
// use exponential/logarithm tables with generator alpha = 0x02.
package gf

import "fmt"

// Order is the number of elements in GF(2^8).
const Order = 256

// polynomial is the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11D) that
// defines GF(2^8); it is the same polynomial used by most Reed-Solomon
// implementations, so coded shards are bit-compatible with them.
const polynomial = 0x11D

// tables bundles the precomputed lookup tables for GF(2^8).
type tables struct {
	// exp[i] = alpha^i for 0 <= i < 510, doubled so Mul can index
	// log[a]+log[b] without a modular reduction.
	exp [510]byte
	// log[a] = log_alpha(a) for a != 0. log[0] is never consulted.
	log [256]int
	// mul[a][b] = a*b for all field elements.
	mul [256][256]byte
	// mulLow[c][x] = c*x and mulHigh[c][x] = c*(x<<4) for nibbles x: the
	// split product tables behind the fast slice kernels (kernels.go),
	// with c*b = mulLow[c][b&15] ^ mulHigh[c][b>>4].
	mulLow  [256][16]byte
	mulHigh [256][16]byte
	// inv[a] = a^-1 for a != 0. inv[0] is 0 and must not be used.
	inv [256]byte
}

var _tables = buildTables()

func buildTables() *tables {
	t := &tables{}
	x := 1
	for i := 0; i < 255; i++ {
		t.exp[i] = byte(x)
		t.exp[i+255] = byte(x)
		t.log[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= polynomial
		}
	}
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			t.mul[a][b] = t.exp[t.log[a]+t.log[b]]
		}
	}
	for a := 1; a < 256; a++ {
		t.inv[a] = t.exp[255-t.log[a]]
	}
	for c := 0; c < 256; c++ {
		for x := 0; x < 16; x++ {
			t.mulLow[c][x] = t.mul[c][x]
			t.mulHigh[c][x] = t.mul[c][x<<4]
		}
	}
	return t
}

// Add returns a+b in GF(2^8). In characteristic 2 this is XOR and is its own
// inverse, so Add also serves as subtraction.
func Add(a, b byte) byte { return a ^ b }

// Sub returns a-b in GF(2^8). Identical to Add in characteristic 2; provided
// so call sites can mirror the paper's formulas (z = x_{j+1} - x_j).
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte { return _tables.mul[a][b] }

// Div returns a/b in GF(2^8). It panics if b is zero: division by zero is a
// programming error in every caller (matrix elimination pivots on non-zero
// entries only).
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	return _tables.exp[_tables.log[a]-_tables.log[b]+255]
}

// Inv returns the multiplicative inverse of a in GF(2^8). It panics if a is
// zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return _tables.inv[a]
}

// AddSlice sets dst[i] ^= src[i] for every position. The slices must have
// equal length; dst and src may be the same slice (but must not otherwise
// overlap).
func AddSlice(dst, src []byte) {
	assertSameLen(len(dst), len(src))
	if fastKernels {
		addSliceFast(dst, src)
		return
	}
	addSliceScalar(dst, src)
}

// MulSlice sets dst[i] = c * src[i] for every position. The slices must have
// equal length; dst and src may be the same slice (but must not otherwise
// overlap).
func MulSlice(c byte, dst, src []byte) {
	assertSameLen(len(dst), len(src))
	if c == 0 {
		clear(dst)
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	if fastKernels {
		mulSliceFast(c, dst, src)
		return
	}
	mulSliceScalar(c, dst, src)
}

// MulAddSlice sets dst[i] ^= c * src[i] for every position: the fused
// multiply-accumulate at the heart of matrix-vector encoding. The slices
// must have equal length; dst and src may be the same slice (but must not
// otherwise overlap).
func MulAddSlice(c byte, dst, src []byte) {
	assertSameLen(len(dst), len(src))
	if c == 0 {
		return
	}
	if c == 1 {
		AddSlice(dst, src)
		return
	}
	if fastKernels {
		mulAddSliceFast(c, dst, src)
		return
	}
	mulAddSliceScalar(c, dst, src)
}

// DotSlice returns the inner product sum_i a[i]*b[i] over GF(2^8). The
// slices must have equal length.
func DotSlice(a, b []byte) byte {
	assertSameLen(len(a), len(b))
	var acc byte
	for i, ai := range a {
		acc ^= _tables.mul[ai][b[i]]
	}
	return acc
}

func assertSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("gf: slice length mismatch: %d != %d", a, b))
	}
}
