// Package delta implements the block model for versioned objects: splitting
// fixed-size objects into k blocks (with zero padding), computing
// differences between versions, and measuring their block-level sparsity.
//
// Following the paper's system model, an object is a vector x in F_q^k and
// a new version x_{j+1} = x_j + z_{j+1}; here every vector entry is a byte
// block and addition is byte-wise XOR (the characteristic-2 field addition),
// so z = Compute(prev, next) both records and undoes the change. The
// sparsity gamma of a delta is the number of non-zero blocks, the quantity
// SEC exploits when gamma < k/2. Blocking.Diff and Diff produce a delta
// already compacted to its gamma non-zero blocks (see CompactDelta).
package delta

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"github.com/secarchive/sec/internal/gf"
)

// Blocking describes how objects are split into coding symbols: K blocks of
// BlockSize bytes each. The object capacity is K*BlockSize bytes; shorter
// objects are zero-padded, which does not change any delta's sparsity.
type Blocking struct {
	K         int
	BlockSize int
}

// NewBlocking validates and returns a Blocking.
func NewBlocking(k, blockSize int) (Blocking, error) {
	if k <= 0 {
		return Blocking{}, fmt.Errorf("delta: k must be positive, got %d", k)
	}
	if blockSize <= 0 {
		return Blocking{}, fmt.Errorf("delta: block size must be positive, got %d", blockSize)
	}
	return Blocking{K: k, BlockSize: blockSize}, nil
}

// BlockingFor returns the Blocking with the smallest block size whose
// capacity holds objectLen bytes in k blocks. objectLen zero yields block
// size 1 so that the blocking stays valid.
func BlockingFor(objectLen, k int) (Blocking, error) {
	if objectLen < 0 {
		return Blocking{}, fmt.Errorf("delta: negative object length %d", objectLen)
	}
	blockSize := (objectLen + k - 1) / k
	if blockSize == 0 {
		blockSize = 1
	}
	return NewBlocking(k, blockSize)
}

// Capacity returns the maximum object length in bytes.
func (b Blocking) Capacity() int { return b.K * b.BlockSize }

// CheckLength fails if an object of length bytes exceeds the capacity.
func (b Blocking) CheckLength(length int) error {
	if length > b.Capacity() {
		return fmt.Errorf("delta: object length %d exceeds blocking capacity %d", length, b.Capacity())
	}
	return nil
}

// Split copies data into K zero-padded blocks of BlockSize bytes. It fails
// if data exceeds the capacity.
func (b Blocking) Split(data []byte) ([][]byte, error) {
	if err := b.CheckLength(len(data)); err != nil {
		return nil, err
	}
	blocks := make([][]byte, b.K)
	for i := range blocks {
		blocks[i] = make([]byte, b.BlockSize)
		lo := i * b.BlockSize
		if lo < len(data) {
			copy(blocks[i], data[lo:])
		}
	}
	return blocks, nil
}

// Join concatenates blocks and trims the result to length bytes: the Trim
// of the blocks, copied into one slice. It fails where Trim does.
func (b Blocking) Join(blocks [][]byte, length int) ([]byte, error) {
	parts, err := b.Trim(blocks, length)
	if err != nil {
		return nil, err
	}
	// bytes.Join allocates without zeroing what it is about to overwrite.
	return bytes.Join(parts, nil), nil
}

// Trim returns the object of length bytes that blocks hold, without copying
// it: the blocks it spans, the last cut to the object's end, as sub-slices
// of blocks. It fails if the blocks do not match the blocking shape, if
// length exceeds the capacity, or if trimming would discard non-zero
// padding (which indicates corruption or a wrong length).
func (b Blocking) Trim(blocks [][]byte, length int) ([][]byte, error) {
	if err := b.checkShape(blocks); err != nil {
		return nil, err
	}
	if length < 0 || length > b.Capacity() {
		return nil, fmt.Errorf("delta: length %d out of range [0,%d]", length, b.Capacity())
	}
	full, rest := length/b.BlockSize, length%b.BlockSize
	parts := blocks[:full:full]
	if rest > 0 {
		parts = append(parts, blocks[full][:rest])
	}
	for i := full; i < b.K; i++ {
		padding := blocks[i]
		if i == full {
			padding = padding[rest:]
		}
		for _, v := range padding {
			if v != 0 {
				return nil, fmt.Errorf("delta: non-zero padding beyond object length %d", length)
			}
		}
	}
	return parts, nil
}

func (b Blocking) checkShape(blocks [][]byte) error {
	if len(blocks) != b.K {
		return fmt.Errorf("delta: got %d blocks, want %d", len(blocks), b.K)
	}
	for i, blk := range blocks {
		if len(blk) != b.BlockSize {
			return fmt.Errorf("delta: block %d has %d bytes, want %d", i, len(blk), b.BlockSize)
		}
	}
	return nil
}

// Compute returns the block-wise difference next - prev (XOR). The inputs
// must have identical shapes. The result is a fresh allocation.
func Compute(prev, next [][]byte) ([][]byte, error) {
	if len(prev) != len(next) {
		return nil, fmt.Errorf("delta: version block counts differ: %d vs %d", len(prev), len(next))
	}
	d := make([][]byte, len(prev))
	for i := range prev {
		if len(prev[i]) != len(next[i]) {
			return nil, fmt.Errorf("delta: block %d sizes differ: %d vs %d", i, len(prev[i]), len(next[i]))
		}
		d[i] = make([]byte, len(prev[i]))
		copy(d[i], prev[i])
		gf.AddSlice(d[i], next[i]) // word-wide XOR kernel
	}
	return d, nil
}

// ReadCost is the paper's per-object read count eta: 0 for an all-zero
// delta, 2*gamma when gamma admits a sparse read (gamma <= maxSparseGamma),
// and k (a full decode) otherwise. The retrieval planner prices every
// delta edge with it (core's deltaCost delegates here), so any
// lifecycle policy built on ReadCost shares the planner's exact model.
func ReadCost(gamma, k, maxSparseGamma int) int {
	switch {
	case gamma == 0:
		return 0
	case gamma <= maxSparseGamma:
		return 2 * gamma
	default:
		return k
	}
}

// Sparsity returns the number of non-zero blocks: the paper's gamma.
func Sparsity(blocks [][]byte) int {
	gamma := 0
	for _, blk := range blocks {
		if !isZeroBlock(blk) {
			gamma++
		}
	}
	return gamma
}

// IsZero reports whether every block is entirely zero.
func IsZero(blocks [][]byte) bool {
	return Sparsity(blocks) == 0
}

// Equal reports whether two block vectors have identical shapes and
// contents.
func Equal(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func isZeroBlock(b []byte) bool { return firstNonZero(b) == len(b) }

// firstNonZero returns the index of blk's first non-zero byte, or len(blk)
// when it has none.
func firstNonZero(blk []byte) int {
	i := 0
	for i+8 <= len(blk) && binary.LittleEndian.Uint64(blk[i:]) == 0 {
		i += 8
	}
	for i < len(blk) && blk[i] == 0 {
		i++
	}
	return i
}

// endNonZero returns one past blk's last non-zero byte, or 0 when it has
// none.
func endNonZero(blk []byte) int {
	i := len(blk)
	for i > 0 && blk[i-1] == 0 {
		i--
	}
	return i
}
