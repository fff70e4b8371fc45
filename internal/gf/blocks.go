package gf

import "fmt"

//go:generate go run ./gfnigen -dir .

// MulBlocks applies a coefficient matrix to a block vector over one byte
// range: for every output block i it sets dst[i][lo:hi] to
// sum_j c[i*len(src)+j] * src[j][lo:hi]. c is row-major, one row per dst
// block and one column per src block; every block holds at least hi bytes,
// and dst must not alias src. With no source blocks the range is zeroed. It
// does not allocate.
//
// This is the one place that decides how a matrix multiplies blocks. With
// the fast kernels selected, a CPU with AVX-512 and GFNI runs the fused
// kernel on the 64-byte multiple of the range: a group of up to gfniMaxRows
// output rows is held in registers and every source vector is loaded once
// per group (DESIGN.md section 2). Everything else, and the tail, takes one
// pass over the destination per coefficient through MulSlice and
// MulAddSlice.
func MulBlocks(c []byte, src, dst [][]byte, lo, hi int) {
	rows, cols := len(dst), len(src)
	if len(c) != rows*cols {
		panic(fmt.Sprintf("gf: %d coefficients for %d rows and %d columns", len(c), rows, cols))
	}
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("gf: byte range [%d,%d)", lo, hi))
	}
	for _, blocks := range [2][][]byte{src, dst} {
		for _, b := range blocks {
			if len(b) < hi {
				panic(fmt.Sprintf("gf: block of %d bytes for range [%d,%d)", len(b), lo, hi))
			}
		}
	}
	if cols == 0 {
		for _, d := range dst {
			clear(d[lo:hi])
		}
		return
	}
	if fastKernels && fusedBlocks {
		lo += mulBlocksFused(c, src, dst, lo, hi)
	}
	if lo < hi {
		mulBlocksPerCoefficient(c, src, dst, lo, hi)
	}
}

// fusedBlocks selects the fused kernel where the CPU has one. Tests clear it
// to run the per-coefficient loop on such a CPU too.
var fusedBlocks = hasGFNI

// mulBlocksPerCoefficient is MulBlocks one coefficient at a time: a
// MulSlice for each row's first column, a MulAddSlice for every other.
func mulBlocksPerCoefficient(c []byte, src, dst [][]byte, lo, hi int) {
	cols := len(src)
	for i, d := range dst {
		acc := d[lo:hi]
		row := c[i*cols : (i+1)*cols]
		MulSlice(row[0], acc, src[0][lo:hi])
		for j := 1; j < cols; j++ {
			MulAddSlice(row[j], acc, src[j][lo:hi])
		}
	}
}

// _affine[c] is multiplication by c as the 8x8 bit matrix VGF2P8AFFINEQB
// takes: byte 7-i of the word is row i, the mask of the source bits k whose
// product c*2^k has bit i set. Bit i of c*x is then the parity of
// row i AND x, which the instruction computes for every byte.
var _affine = buildAffine()

func buildAffine() *[256]uint64 {
	var t [256]uint64
	for c := 0; c < 256; c++ {
		var m uint64
		for i := 0; i < 8; i++ {
			var row uint64
			for k := 0; k < 8; k++ {
				if Mul(byte(c), 1<<k)>>i&1 != 0 {
					row |= 1 << k
				}
			}
			m |= row << (8 * (7 - i))
		}
		t[c] = m
	}
	return &t
}
