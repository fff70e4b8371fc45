package gf

// AVX2 multiply kernels: the 16-entry nibble product tables fit one XMM
// register each, so a 32-byte vector is multiplied by a constant with two
// VPSHUFB byte shuffles (low and high source nibble) and a XOR. Assembly is
// in kernels_amd64.s; the hooks below run it on the 32-byte-aligned prefix
// and report how much they handled, leaving the tail to the scalar loop.

// hasAVX2 gates the assembly kernels on both CPU and OS support (the OS
// must save YMM state across context switches, reported via XGETBV).
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsaveBit = 1 << 27
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsaveBit == 0 {
		return false
	}
	const xmmAndYMMState = 0x6
	if eax, _ := xgetbv(); eax&xmmAndYMMState != xmmAndYMMState {
		return false
	}
	const avx2Bit = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2Bit != 0
}

// hasGFNI gates the fused block kernel (blocks.go, gfni_amd64.s): AVX-512F
// and BW and GFNI on the CPU, and an OS that saves the opmask registers and
// all 32 ZMM registers.
var hasGFNI = detectGFNI()

func detectGFNI() bool {
	if !hasAVX2 {
		return false // leaf 7 and OSXSAVE are established there
	}
	const zmmState = 0xe6 // XMM, YMM, opmask, upper ZMM0-15, ZMM16-31
	if eax, _ := xgetbv(); eax&zmmState != zmmState {
		return false
	}
	const avx512F, avx512BW, gfni = 1 << 16, 1 << 30, 1 << 8
	_, ebx7, ecx7, _ := cpuid(7, 0)
	return ebx7&(avx512F|avx512BW) == avx512F|avx512BW && ecx7&gfni != 0
}

// gfniMaxCols bounds the columns of one fused pass, and with them the table
// of affine matrices mulBlocksFused keeps on its stack. A wider matrix takes
// further passes that accumulate into dst.
const gfniMaxCols = 16

// mulBlocksFused runs MulBlocks on the 64-byte multiple of [lo,hi) through
// the fused kernels and reports how many bytes it handled. The rows are
// split into as few groups as the widest kernel allows, of near-equal size.
func mulBlocksFused(c []byte, src, dst [][]byte, lo, hi int) int {
	n := (hi - lo) &^ 63
	if n == 0 {
		return 0
	}
	rows, cols := len(dst), len(src)
	var mats [gfniMaxRows * gfniMaxCols]uint64
	groups := (rows + gfniMaxRows - 1) / gfniMaxRows
	for r0, g := 0, 0; g < groups; g++ {
		r := (rows - r0) / (groups - g)
		for c0 := 0; c0 < cols; c0 += gfniMaxCols {
			w := min(gfniMaxCols, cols-c0)
			for j := 0; j < w; j++ {
				for i := 0; i < r; i++ {
					mats[j*r+i] = _affine[c[(r0+i)*cols+c0+j]]
				}
			}
			gfniMul(r, &mats[0], &src[c0], w, &dst[r0], lo, n, c0 > 0)
		}
		r0 += r
	}
	return n
}

func mulSliceAccel(c byte, dst, src []byte) int {
	n := len(src) &^ 31
	if n == 0 || !hasAVX2 {
		return 0
	}
	mulSliceAVX2(&_tables.mulLow[c], &_tables.mulHigh[c], dst[:n], src[:n])
	return n
}

func mulAddSliceAccel(c byte, dst, src []byte) int {
	n := len(src) &^ 31
	if n == 0 || !hasAVX2 {
		return 0
	}
	mulAddSliceAVX2(&_tables.mulLow[c], &_tables.mulHigh[c], dst[:n], src[:n])
	return n
}

// Implemented in kernels_amd64.s.

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func mulSliceAVX2(low, high *[16]byte, dst, src []byte)

//go:noescape
func mulAddSliceAVX2(low, high *[16]byte, dst, src []byte)
