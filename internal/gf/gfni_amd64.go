// Code generated by gfnigen. DO NOT EDIT.

package gf

// gfniMaxRows is the widest fused kernel (gfnigen).
const gfniMaxRows = 30

// gfniMul runs the fused kernel for rows output blocks: for every 64-byte
// vector of [off, off+n) it sets dst[i] (or, with accumulate, adds to it)
// sum_j mats[j*rows+i] applied to src[j], over cols source blocks. n is a
// non-zero multiple of 64 and every block holds off+n bytes.
func gfniMul(rows int, mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool) {
	switch rows {
	case 1:
		gfniMul1(mats, src, cols, dst, off, n, accumulate)
	case 2:
		gfniMul2(mats, src, cols, dst, off, n, accumulate)
	case 3:
		gfniMul3(mats, src, cols, dst, off, n, accumulate)
	case 4:
		gfniMul4(mats, src, cols, dst, off, n, accumulate)
	case 5:
		gfniMul5(mats, src, cols, dst, off, n, accumulate)
	case 6:
		gfniMul6(mats, src, cols, dst, off, n, accumulate)
	case 7:
		gfniMul7(mats, src, cols, dst, off, n, accumulate)
	case 8:
		gfniMul8(mats, src, cols, dst, off, n, accumulate)
	case 9:
		gfniMul9(mats, src, cols, dst, off, n, accumulate)
	case 10:
		gfniMul10(mats, src, cols, dst, off, n, accumulate)
	case 11:
		gfniMul11(mats, src, cols, dst, off, n, accumulate)
	case 12:
		gfniMul12(mats, src, cols, dst, off, n, accumulate)
	case 13:
		gfniMul13(mats, src, cols, dst, off, n, accumulate)
	case 14:
		gfniMul14(mats, src, cols, dst, off, n, accumulate)
	case 15:
		gfniMul15(mats, src, cols, dst, off, n, accumulate)
	case 16:
		gfniMul16(mats, src, cols, dst, off, n, accumulate)
	case 17:
		gfniMul17(mats, src, cols, dst, off, n, accumulate)
	case 18:
		gfniMul18(mats, src, cols, dst, off, n, accumulate)
	case 19:
		gfniMul19(mats, src, cols, dst, off, n, accumulate)
	case 20:
		gfniMul20(mats, src, cols, dst, off, n, accumulate)
	case 21:
		gfniMul21(mats, src, cols, dst, off, n, accumulate)
	case 22:
		gfniMul22(mats, src, cols, dst, off, n, accumulate)
	case 23:
		gfniMul23(mats, src, cols, dst, off, n, accumulate)
	case 24:
		gfniMul24(mats, src, cols, dst, off, n, accumulate)
	case 25:
		gfniMul25(mats, src, cols, dst, off, n, accumulate)
	case 26:
		gfniMul26(mats, src, cols, dst, off, n, accumulate)
	case 27:
		gfniMul27(mats, src, cols, dst, off, n, accumulate)
	case 28:
		gfniMul28(mats, src, cols, dst, off, n, accumulate)
	case 29:
		gfniMul29(mats, src, cols, dst, off, n, accumulate)
	case 30:
		gfniMul30(mats, src, cols, dst, off, n, accumulate)
	default:
		panic("gf: no fused kernel for this row count")
	}
}

//go:noescape
func gfniMul1(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul2(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul3(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul4(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul5(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul6(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul7(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul8(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul9(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul10(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul11(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul12(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul13(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul14(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul15(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul16(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul17(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul18(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul19(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul20(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul21(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul22(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul23(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul24(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul25(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul26(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul27(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul28(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul29(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)

//go:noescape
func gfniMul30(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)
