// Code generated by gfnigen. DO NOT EDIT.

package gf

// gfniMaxRows is the widest fused kernel (gfnigen).
const gfniMaxRows = 30

// gfniMul runs the fused kernel for rows output blocks, 1 <= rows <=
// gfniMaxRows: for every 64-byte vector of [off, off+n) it sets dst[i] (or,
// with accumulate, adds to it) sum_j mats[j*rows+i] applied to src[j], over
// cols source blocks. n is a non-zero multiple of 64 and every block holds
// off+n bytes.
//
//go:noescape
func gfniMul(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool, rows int)
