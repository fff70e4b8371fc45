package gf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// blockPath is one way MulBlocks can run on this CPU, chosen through the
// package's kernel switches.
type blockPath struct {
	name        string
	fast, fused bool
	supported   bool
}

// blockPaths are the three MulBlocks paths: the fused GFNI kernel, the
// per-coefficient loop over the AVX2 slice kernels, and the per-coefficient
// loop over the scalar ones.
var blockPaths = []blockPath{
	{"fused", true, true, hasGFNI},
	{"avx2", true, false, hasAVX2},
	{"scalar", false, false, true},
}

// withBlockPath runs f with MulBlocks taking path p.
func withBlockPath(p blockPath, f func()) {
	prevFast, prevFused := SetFastKernels(p.fast), fusedBlocks
	fusedBlocks = p.fused
	defer func() { SetFastKernels(prevFast); fusedBlocks = prevFused }()
	f()
}

// eachBlockPath runs f under every path, as a subtest that logs a skip for a
// path this CPU lacks.
func eachBlockPath(t *testing.T, f func(t *testing.T)) {
	for _, p := range blockPaths {
		t.Run(p.name, func(t *testing.T) {
			if !p.supported {
				t.Skipf("CPU lacks the %s path", p.name)
			}
			withBlockPath(p, func() { f(t) })
		})
	}
}

// mulBlocksRef is MulBlocks one byte and one product at a time.
func mulBlocksRef(c []byte, src, dst [][]byte, lo, hi int) {
	for i, d := range dst {
		for x := lo; x < hi; x++ {
			var acc byte
			for j, s := range src {
				acc ^= Mul(c[i*len(src)+j], s[x])
			}
			d[x] = acc
		}
	}
}

// checkMulBlocks runs MulBlocks on random blocks of lo+n+pad bytes with stale
// destinations and compares every byte, including those outside [lo,lo+n),
// which must be left alone, with the reference.
func checkMulBlocks(t *testing.T, rng *rand.Rand, c []byte, rows, cols, lo, n int) {
	t.Helper()
	const pad = 7
	size := lo + n + pad
	src := make([][]byte, cols)
	for j := range src {
		src[j] = randBytes(rng, size)
	}
	got, want := make([][]byte, rows), make([][]byte, rows)
	for i := range got {
		got[i] = randBytes(rng, size)
		want[i] = append([]byte(nil), got[i]...)
	}
	MulBlocks(c, src, got, lo, lo+n)
	mulBlocksRef(c, src, want, lo, lo+n)
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			at := 0
			for got[i][at] == want[i][at] {
				at++
			}
			t.Fatalf("%dx%d over [%d,%d): row %d differs first at byte %d", rows, cols, lo, lo+n, i, at)
		}
	}
}

func randCoefficients(rng *rand.Rand, n int, zeroEvery int) []byte {
	c := randBytes(rng, n)
	for i := 0; zeroEvery > 0 && i < n; i += zeroEvery {
		c[i] = 0
	}
	return c
}

// TestMulBlocksPaths checks every path against the reference on the shapes
// that reach each part of the fused kernel: one row up to more than one
// register group, one column up to more than one pass of columns, ranges
// with and without a tail, offsets off the vector grid, and zero and one
// coefficients.
func TestMulBlocksPaths(t *testing.T) {
	eachBlockPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for _, shape := range [][2]int{{1, 1}, {2, 3}, {12, 10}, {10, 10}, {30, 1}, {31, 2}, {45, 17}, {3, 33}} {
			rows, cols := shape[0], shape[1]
			for _, span := range [][2]int{{0, 0}, {0, 63}, {0, 64}, {5, 64}, {3, 200}, {64, 4096}, {1, 4096 + 65}} {
				c := randCoefficients(rng, rows*cols, 3)
				c[len(c)-1] = 1
				checkMulBlocks(t, rng, c, rows, cols, span[0], span[1])
			}
		}
	})
}

// TestMulBlocksNoColumns checks that an empty block vector zeroes the range.
func TestMulBlocksNoColumns(t *testing.T) {
	dst := [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8}}
	MulBlocks(nil, nil, dst, 1, 3)
	if !bytes.Equal(dst[0], []byte{1, 0, 0, 4}) || !bytes.Equal(dst[1], []byte{5, 0, 0, 8}) {
		t.Fatalf("got %v", dst)
	}
}

// TestMulBlocksRejectsBadShapes checks the argument checks that keep the
// kernels inside their blocks.
func TestMulBlocksRejectsBadShapes(t *testing.T) {
	blocks := func(n, size int) [][]byte {
		b := make([][]byte, n)
		for i := range b {
			b[i] = make([]byte, size)
		}
		return b
	}
	for name, call := range map[string]func(){
		"coefficients": func() { MulBlocks(make([]byte, 5), blocks(2, 64), blocks(3, 64), 0, 64) },
		"short source": func() { MulBlocks(make([]byte, 6), blocks(2, 63), blocks(3, 64), 0, 64) },
		"short dest":   func() { MulBlocks(make([]byte, 6), blocks(2, 64), blocks(3, 63), 0, 64) },
		"range":        func() { MulBlocks(make([]byte, 6), blocks(2, 64), blocks(3, 64), 9, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// TestMulBlocksDoesNotAllocate pins the fused path's matrix table to the
// stack.
func TestMulBlocksDoesNotAllocate(t *testing.T) {
	eachBlockPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		c := randCoefficients(rng, 12*10, 0)
		src, dst := make([][]byte, 10), make([][]byte, 12)
		for j := range src {
			src[j] = randBytes(rng, 4096)
		}
		for i := range dst {
			dst[i] = make([]byte, 4096)
		}
		if allocs := testing.AllocsPerRun(10, func() { MulBlocks(c, src, dst, 0, 4096) }); allocs != 0 {
			t.Fatalf("%v allocs per call", allocs)
		}
	})
}

// FuzzMulBlocks cross-checks every path against the reference on arbitrary
// shapes: up to 40 rows (more than one register group) and 18 columns (more
// than one pass of columns), coefficients with zeros, and byte ranges of
// every length class the callers produce - empty, under one vector, off the
// vector grid, 4 KiB, and past 64 KiB (a MulBlocksInto chunk) - from an
// offset off the grid.
func FuzzMulBlocks(f *testing.F) {
	f.Add(uint8(12), uint8(10), uint8(3), uint16(0), uint8(0), int64(1))
	f.Add(uint8(31), uint8(1), uint8(4), uint16(9), uint8(5), int64(2))
	f.Add(uint8(2), uint8(17), uint8(2), uint16(100), uint8(1), int64(3))
	f.Add(uint8(5), uint8(3), uint8(0), uint16(0), uint8(2), int64(4))
	f.Add(uint8(40), uint8(18), uint8(1), uint16(63), uint8(3), int64(5))
	f.Fuzz(func(t *testing.T, rows, cols, class uint8, length uint16, zeroEvery uint8, seed int64) {
		r, c := 1+int(rows%40), 1+int(cols%18)
		lo := int(length % 128)
		var n int
		switch class % 5 {
		case 0:
			n = 0
		case 1:
			n = int(length % 64)
		case 2:
			n = int(length%1024) | 1
		case 3:
			n = 4096
		default:
			n = 64<<10 + int(length%4096)
			r, c = min(r, 33), min(c, 2) // the reference is one Mul per byte per coefficient
		}
		rng := rand.New(rand.NewSource(seed))
		coeffs := randCoefficients(rng, r*c, int(zeroEvery%4))
		for _, p := range blockPaths {
			if !p.supported {
				continue
			}
			withBlockPath(p, func() { checkMulBlocks(t, rand.New(rand.NewSource(seed)), coeffs, r, c, lo, n) })
		}
	})
}

// BenchmarkMulBlocks prices each path on the coding shapes of a (12,10)
// code: encode (12x10) and full decode (10x10), at 4 KiB and 200 KiB blocks.
func BenchmarkMulBlocks(b *testing.B) {
	for _, shape := range [][2]int{{12, 10}, {10, 10}} {
		for _, size := range []int{4 << 10, 200 << 10} {
			for _, p := range blockPaths {
				b.Run(fmt.Sprintf("%dx%d/%dKiB/%s", shape[0], shape[1], size>>10, p.name), func(b *testing.B) {
					if !p.supported {
						b.Skipf("CPU lacks the %s path", p.name)
					}
					rng := rand.New(rand.NewSource(3))
					c := randCoefficients(rng, shape[0]*shape[1], 0)
					src, dst := make([][]byte, shape[1]), make([][]byte, shape[0])
					for j := range src {
						src[j] = randBytes(rng, size)
					}
					for i := range dst {
						dst[i] = make([]byte, size)
					}
					b.SetBytes(int64(shape[1] * size))
					b.ReportAllocs()
					withBlockPath(p, func() {
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							MulBlocks(c, src, dst, 0, size)
						}
					})
				})
			}
		}
	}
}
