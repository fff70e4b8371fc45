// Command gfnigen writes the fused GF(2^8) block-product kernels of package
// gf (DESIGN.md section 2): gfni_amd64.s holds one unrolled AVX-512 kernel
// per output-row count 1..maxRows, a table of them and gfniMul, which jumps
// through the table to the kernel for a row count, and gfni_amd64.go the
// declaration of gfniMul. The dispatch is data, not Go statements, so the
// package's coverage reads the same on a CPU that never runs it. From the
// repository root:
//
//	go run ./internal/gf/gfnigen -dir internal/gf
//
// The kernel for r rows computes, for every 64-byte vector of a byte range,
// dst[i] = sum_j A[i][j]*src[j] with the r sums held in ZMM accumulators: each
// source vector is loaded once and multiplied into every accumulator by
// VGF2P8AFFINEQB, whose matrix operand is the coefficient's 8x8 bit matrix
// broadcast from memory. The r accumulators, the source vector and one
// product take maxRows+2 = 32 registers.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
)

// maxRows is the widest kernel: its accumulators, the source vector and the
// product register fill the 32 ZMM registers.
const maxRows = 30

func main() {
	dir := flag.String("dir", ".", "directory of package gf")
	flag.Parse()
	for name, src := range map[string][]byte{"gfni_amd64.s": asm(), "gfni_amd64.go": decls()} {
		if err := os.WriteFile(filepath.Join(*dir, name), src, 0o644); err != nil {
			log.Fatal(err)
		}
	}
}

const header = "// Code generated by gfnigen. DO NOT EDIT.\n\n"

// asm returns gfniMul, the table and the kernels. gfniMul takes the row
// count last, so the kernel it jumps to finds every argument of its own
// where its frame expects it. Kernel argument registers: AX the affine
// matrices (column by column, the r rows' matrices of one column adjacent),
// BX the source slice headers, CX the column count, DX the destination slice
// headers, SI the byte offset, DI the bytes left (a multiple of 64), R8 the
// accumulate flag. With accumulate false the first column's products
// initialise the accumulators; with it true they start from dst.
func asm() []byte {
	var b bytes.Buffer
	b.WriteString(header)
	b.WriteString("#include \"textflag.h\"\n")
	b.WriteString(`
// func gfniMul(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool, rows int)
TEXT ·gfniMul(SB), NOSPLIT, $0-64
	MOVQ rows+56(FP), AX
	LEAQ gfniKernels<>(SB), BX
	MOVQ -8(BX)(AX*8), AX
	JMP  AX
`)
	b.WriteString("\n")
	for r := 1; r <= maxRows; r++ {
		fmt.Fprintf(&b, "DATA gfniKernels<>+%d(SB)/8, $gfniMul%d<>(SB)\n", (r-1)*8, r)
	}
	fmt.Fprintf(&b, "GLOBL gfniKernels<>(SB), RODATA, $%d\n", maxRows*8)
	for r := 1; r <= maxRows; r++ {
		w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
		each := func(format string) {
			for i := 0; i < r; i++ {
				w(format, i*24, i)
			}
		}
		w("")
		w("// gfniMul%d(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool)", r)
		w("TEXT gfniMul%d<>(SB), NOSPLIT, $0-49", r)
		w("\tMOVQ    mats+0(FP), AX")
		w("\tMOVQ    src+8(FP), BX")
		w("\tMOVQ    cols+16(FP), CX")
		w("\tMOVQ    dst+24(FP), DX")
		w("\tMOVQ    off+32(FP), SI")
		w("\tMOVQ    n+40(FP), DI")
		w("\tMOVBLZX accumulate+48(FP), R8")
		w("")
		w("loop%d:", r)
		w("\tMOVQ  BX, R10")
		w("\tMOVQ  AX, R11")
		w("\tMOVQ  CX, R12")
		w("\tTESTL R8, R8")
		w("\tJNZ   load%d", r)
		w("\tMOVQ      (R10), R9")
		w("\tVMOVDQU64 (R9)(SI*1), Z30")
		for i := 0; i < r; i++ {
			w("\tVGF2P8AFFINEQB.BCST $0x00, %d(R11), Z30, Z%d", i*8, i)
		}
		w("\tADDQ $24, R10")
		w("\tADDQ $%d, R11", r*8)
		w("\tDECQ R12")
		w("\tJZ   store%d", r)
		w("\tJMP  cols%d", r)
		w("")
		w("load%d:", r)
		each("\tMOVQ      %d(DX), R9\n\tVMOVDQU64 (R9)(SI*1), Z%d")
		w("")
		w("cols%d:", r)
		w("\tMOVQ      (R10), R9")
		w("\tVMOVDQU64 (R9)(SI*1), Z30")
		for i := 0; i < r; i++ {
			w("\tVGF2P8AFFINEQB.BCST $0x00, %d(R11), Z30, Z31", i*8)
			w("\tVPXORQ              Z31, Z%d, Z%d", i, i)
		}
		w("\tADDQ $24, R10")
		w("\tADDQ $%d, R11", r*8)
		w("\tDECQ R12")
		w("\tJNZ  cols%d", r)
		w("")
		w("store%d:", r)
		each("\tMOVQ      %d(DX), R9\n\tVMOVDQU64 Z%d, (R9)(SI*1)")
		w("\tADDQ $64, SI")
		w("\tSUBQ $64, DI")
		w("\tJNZ  loop%d", r)
		w("\tVZEROUPPER")
		w("\tRET")
	}
	return b.Bytes()
}

// decls returns the Go side: the widest kernel and the declaration of
// gfniMul, an assembly function the caller calls directly, so that escape
// analysis sees the noescape pragma and the caller's matrix table stays on
// its stack.
func decls() []byte {
	var b bytes.Buffer
	b.WriteString(header)
	b.WriteString("package gf\n\n")
	fmt.Fprintf(&b, "// gfniMaxRows is the widest fused kernel (gfnigen).\nconst gfniMaxRows = %d\n", maxRows)
	b.WriteString(`
// gfniMul runs the fused kernel for rows output blocks, 1 <= rows <=
// gfniMaxRows: for every 64-byte vector of [off, off+n) it sets dst[i] (or,
// with accumulate, adds to it) sum_j mats[j*rows+i] applied to src[j], over
// cols source blocks. n is a non-zero multiple of 64 and every block holds
// off+n bytes.
//
//go:noescape
func gfniMul(mats *uint64, src *[]byte, cols int, dst *[]byte, off, n int, accumulate bool, rows int)
`)
	return b.Bytes()
}
