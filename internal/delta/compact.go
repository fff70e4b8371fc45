package delta

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"github.com/secarchive/sec/internal/gf"
)

// This file implements the compacted delta form of compressed differential
// erasure coding (CDEC, the paper's direct follow-up work): a gamma-sparse
// delta z in F_q^k is represented by its support (which blocks are
// non-zero) plus the gamma non-zero blocks themselves. Erasure-coding the
// compacted vector instead of the full one uses an effective message
// length k' = gamma, so both the stored codeword and the bytes moved to
// decode it shrink by a factor of roughly k/gamma. The support is
// client-side metadata, exactly like the paper's per-delta gamma_j.

// CompactDelta is the compacted form of a sparse delta: the blocking shape,
// the support (indices of the non-zero blocks, strictly increasing), and
// the non-zero blocks in support order. The zero-gamma delta compacts to an
// empty support with no blocks.
type CompactDelta struct {
	// K and BlockSize are the blocking shape of the expanded delta.
	K         int
	BlockSize int
	// Support lists the non-zero block indices in increasing order.
	Support []int
	// Blocks holds the non-zero blocks, aligned with Support.
	Blocks [][]byte
}

// Gamma returns the delta's sparsity (the number of non-zero blocks).
func (c CompactDelta) Gamma() int { return len(c.Support) }

// validate checks the compact form's internal consistency.
func (c CompactDelta) validate() error {
	if c.K <= 0 {
		return fmt.Errorf("delta: compact form k must be positive, got %d", c.K)
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("delta: compact form block size must be positive, got %d", c.BlockSize)
	}
	if len(c.Blocks) != len(c.Support) {
		return fmt.Errorf("delta: compact form has %d blocks for %d support indices", len(c.Blocks), len(c.Support))
	}
	prev := -1
	for i, s := range c.Support {
		if s < 0 || s >= c.K {
			return fmt.Errorf("delta: support index %d outside [0,%d)", s, c.K)
		}
		if s <= prev {
			return fmt.Errorf("delta: support indices not strictly increasing at %d", s)
		}
		prev = s
		if len(c.Blocks[i]) != c.BlockSize {
			return fmt.Errorf("delta: compact block %d has %d bytes, want %d", i, len(c.Blocks[i]), c.BlockSize)
		}
	}
	return nil
}

// View returns the compacted form of an expanded delta: its support and,
// without copies, its gamma non-zero blocks, which are the blocks of the
// input. The input must be a uniform block vector (every block the same
// non-zero length).
func View(blocks [][]byte) (CompactDelta, error) {
	if len(blocks) == 0 {
		return CompactDelta{}, fmt.Errorf("delta: compacting an empty block vector")
	}
	blockSize := len(blocks[0])
	if blockSize == 0 {
		return CompactDelta{}, fmt.Errorf("delta: compacting zero-length blocks")
	}
	c := CompactDelta{K: len(blocks), BlockSize: blockSize}
	for i, blk := range blocks {
		if len(blk) != blockSize {
			return CompactDelta{}, fmt.Errorf("delta: block %d has %d bytes, want %d", i, len(blk), blockSize)
		}
		if isZeroBlock(blk) {
			continue
		}
		c.Support = append(c.Support, i)
		c.Blocks = append(c.Blocks, blk)
	}
	return c, nil
}

// Diff returns the compact delta next - prev between two versions of the
// same shape. Each pair of blocks is compared first; only the blocks that
// differ are XORed, each into a fresh block, so gamma and the support come
// out of the one pass and neither input is written.
func Diff(prev, next [][]byte) (CompactDelta, error) {
	if len(prev) != len(next) {
		return CompactDelta{}, fmt.Errorf("delta: version block counts differ: %d vs %d", len(prev), len(next))
	}
	if len(prev) == 0 || len(prev[0]) == 0 {
		return CompactDelta{}, fmt.Errorf("delta: diffing an empty block vector")
	}
	c := CompactDelta{K: len(prev), BlockSize: len(prev[0])}
	for i := range prev {
		if len(prev[i]) != c.BlockSize || len(next[i]) != c.BlockSize {
			return CompactDelta{}, fmt.Errorf("delta: block %d sizes differ: %d vs %d, want %d", i, len(prev[i]), len(next[i]), c.BlockSize)
		}
		if !bytes.Equal(prev[i], next[i]) {
			c.add(i, prev[i], next[i])
		}
	}
	return c, nil
}

// Diff splits object into K blocks against prev, the blocks of the version
// before it, and returns the new version's blocks with the compact delta
// between the two. Each block of object is compared with its predecessor
// first, the zero padding of a short object included. An unchanged block of
// next is prev's own block; a changed one is a fresh copy, XORed with its
// predecessor into a fresh delta block, so gamma and the support come out of
// the one pass. Neither prev nor object is written, and nothing returned
// aliases object. It fails, like Split, if object exceeds the capacity.
func (b Blocking) Diff(prev [][]byte, object []byte) (next [][]byte, d CompactDelta, err error) {
	if err := b.CheckLength(len(object)); err != nil {
		return nil, CompactDelta{}, err
	}
	if err := b.checkShape(prev); err != nil {
		return nil, CompactDelta{}, err
	}
	next = make([][]byte, b.K)
	d = CompactDelta{K: b.K, BlockSize: b.BlockSize}
	for i, old := range prev {
		lo := min(i*b.BlockSize, len(object))
		src := object[lo:min(lo+b.BlockSize, len(object))]
		if bytes.Equal(old[:len(src)], src) && isZeroBlock(old[len(src):]) {
			next[i] = old
			continue
		}
		next[i] = make([]byte, b.BlockSize)
		copy(next[i], src)
		d.add(i, old, next[i])
	}
	return next, d, nil
}

// add appends block i, old + cur, to the delta: the caller has found the two
// to differ, and keeps the indices it adds increasing.
func (c *CompactDelta) add(i int, old, cur []byte) {
	z := append([]byte(nil), cur...)
	gf.AddSlice(z, old)
	c.Support = append(c.Support, i)
	c.Blocks = append(c.Blocks, z)
}

// ApplyTo returns base + c without expanding c: a vector that shares with
// base the K - gamma blocks outside the support and holds one new block,
// base[s] + c.Blocks[i], for each s in it. XOR deltas are self-inverse, so
// the same call goes from a delta's base to its version and back. Neither
// base nor c is written, and the result is read-only wherever base is; a
// delta with an empty support returns base itself.
func (c CompactDelta) ApplyTo(base [][]byte) ([][]byte, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if len(base) != c.K {
		return nil, fmt.Errorf("delta: version block counts differ: %d vs %d", len(base), c.K)
	}
	if len(c.Support) == 0 {
		return base, nil
	}
	out := append([][]byte(nil), base...)
	for i, s := range c.Support {
		if len(base[s]) != c.BlockSize {
			return nil, fmt.Errorf("delta: block %d sizes differ: %d vs %d", s, len(base[s]), c.BlockSize)
		}
		out[s] = append([]byte(nil), base[s]...)
		gf.AddSlice(out[s], c.Blocks[i])
	}
	return out, nil
}

// Expand reconstructs the full k-block delta: the support blocks in place,
// zero blocks everywhere else. The result is a fresh allocation.
func (c CompactDelta) Expand() ([][]byte, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	blocks := make([][]byte, c.K)
	for i := range blocks {
		blocks[i] = make([]byte, c.BlockSize)
	}
	for i, s := range c.Support {
		copy(blocks[s], c.Blocks[i])
	}
	return blocks, nil
}

// compactMagic identifies the serialized compact-delta format. The trailing
// byte versions the layout.
var compactMagic = [4]byte{'S', 'C', 'D', '1'}

// MarshalBinary serializes the compact delta: a fixed header (magic, k,
// block size), a support bitmap of ceil(k/8) bytes (bit i set when block i
// is non-zero, unused high bits zero), and the gamma non-zero blocks in
// support order. This is the storage/wire form: everything needed to expand
// the delta travels in one self-delimiting record.
func (c CompactDelta) MarshalBinary() ([]byte, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	bitmapLen := (c.K + 7) / 8
	out := make([]byte, 0, len(compactMagic)+8+bitmapLen+len(c.Blocks)*c.BlockSize)
	out = append(out, compactMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(c.K))
	out = binary.LittleEndian.AppendUint32(out, uint32(c.BlockSize))
	bitmap := make([]byte, bitmapLen)
	for _, s := range c.Support {
		bitmap[s/8] |= 1 << (s % 8)
	}
	out = append(out, bitmap...)
	for _, blk := range c.Blocks {
		out = append(out, blk...)
	}
	return out, nil
}

// UnmarshalBinary parses a record produced by MarshalBinary, validating
// the header, the bitmap's unused bits, and the exact record length before
// allocating block storage. The parsed blocks are copies of the input.
func (c *CompactDelta) UnmarshalBinary(data []byte) error {
	header := len(compactMagic) + 8
	if len(data) < header {
		return fmt.Errorf("delta: compact record too short: %d bytes", len(data))
	}
	if [4]byte(data[:4]) != compactMagic {
		return fmt.Errorf("delta: bad compact record magic %q", data[:4])
	}
	k := int(binary.LittleEndian.Uint32(data[4:]))
	blockSize := int(binary.LittleEndian.Uint32(data[8:]))
	if k <= 0 || blockSize <= 0 {
		return fmt.Errorf("delta: compact record has invalid shape k=%d blockSize=%d", k, blockSize)
	}
	bitmapLen := (k + 7) / 8
	if int64(len(data)) < int64(header)+int64(bitmapLen) {
		return fmt.Errorf("delta: compact record truncated before bitmap")
	}
	bitmap := data[header : header+bitmapLen]
	var support []int
	for i := 0; i < bitmapLen*8; i++ {
		if bitmap[i/8]&(1<<(i%8)) == 0 {
			continue
		}
		if i >= k {
			return fmt.Errorf("delta: compact record bitmap sets unused bit %d (k=%d)", i, k)
		}
		support = append(support, i)
	}
	want := int64(header) + int64(bitmapLen) + int64(len(support))*int64(blockSize)
	if int64(len(data)) != want {
		return fmt.Errorf("delta: compact record length %d, want %d for gamma=%d", len(data), want, len(support))
	}
	blocks := make([][]byte, len(support))
	payload := data[header+bitmapLen:]
	for i := range blocks {
		blocks[i] = append([]byte(nil), payload[i*blockSize:(i+1)*blockSize]...)
	}
	*c = CompactDelta{K: k, BlockSize: blockSize, Support: support, Blocks: blocks}
	return nil
}

// CompressedReadCost is the per-object read count of a CDEC-compacted
// delta: decoding the compacted codeword needs k' = gamma shard reads
// (zero for the all-zero delta, which stores nothing worth reading). It
// sits alongside ReadCost so the retrieval planner prices compressed and
// plain delta edges from one shared model.
func CompressedReadCost(gamma int) int {
	if gamma <= 0 {
		return 0
	}
	return gamma
}
