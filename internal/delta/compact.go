package delta

import (
	"bytes"
	"fmt"
	"slices"

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
//
// The same sparsity holds inside a block, and the compact form uses it
// too: every changed block is zero outside one byte window of its own, and
// the form keeps only that window of each, all of one width, the widest of
// them. Row i of a codeword is sum_j G_ij * z_j byte by byte, so a codeword
// encoded from the windows, each moved to offset 0, is the full-width
// codeword of the delta whose blocks are moved there: the offsets ride with
// the support as metadata.

// windowAlign is the granularity of a block's byte window: its edges fall
// on multiples of it (or on the block's end), and it is never narrower.
const windowAlign = 64

// CompactDelta is the compacted form of a sparse delta: the blocking shape,
// the support (indices of the non-zero blocks, strictly increasing), and
// the window of each non-zero block in support order. The zero-gamma delta
// compacts to an empty support with no blocks.
type CompactDelta struct {
	// K and BlockSize are the blocking shape of the expanded delta.
	K         int
	BlockSize int
	// Offs places the blocks inside the changed blocks: Blocks[i] is bytes
	// [Offs[i], Offs[i]+len(Blocks[i])) of block Support[i], which is zero
	// outside them. Nil places every block at offset 0, as the full-width
	// form, whose blocks are BlockSize bytes long, has them.
	Offs []int
	// Support lists the non-zero block indices in increasing order.
	Support []int
	// Blocks holds the windows of the non-zero blocks, aligned with
	// Support, all of one length.
	Blocks [][]byte
}

// Gamma returns the delta's sparsity (the number of non-zero blocks).
func (c CompactDelta) Gamma() int { return len(c.Support) }

// Width returns the byte width of the delta's windows, the length of each
// of its blocks. A delta that changed nothing has the narrowest window its
// blocking allows (windowOf).
func (c CompactDelta) Width() int {
	if len(c.Blocks) > 0 {
		return len(c.Blocks[0])
	}
	off, end := windowOf(c.BlockSize, 0, 0)
	return end - off
}

// Off returns the offset of the i-th block inside block Support[i].
func (c CompactDelta) Off(i int) int {
	if c.Offs == nil {
		return 0
	}
	return c.Offs[i]
}

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
	if c.Offs != nil && len(c.Offs) != len(c.Support) {
		return fmt.Errorf("delta: compact form has %d offsets for %d support indices", len(c.Offs), len(c.Support))
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
		if w, off := len(c.Blocks[i]), c.Off(i); w == 0 || w != len(c.Blocks[0]) || off < 0 || off+w > c.BlockSize {
			return fmt.Errorf("delta: compact block %d has %d bytes at offset %d, want %d within %d", i, w, off, len(c.Blocks[0]), c.BlockSize)
		}
	}
	return nil
}

// windowOf returns the window [off, end) of a block whose change is zero
// outside bytes [lo, hi) (lo = hi = 0 when nothing changed): that range
// rounded out to windowAlign boundaries or the block's end, and never
// narrower than windowAlign. A block under two windows is never windowed,
// so no code meets a block under 64 bytes that it did not meet before
// windows existed.
func windowOf(blockSize, lo, hi int) (off, end int) {
	if blockSize < 2*windowAlign {
		return 0, blockSize
	}
	off, end = lo&^(windowAlign-1), min((hi+windowAlign-1)&^(windowAlign-1), blockSize)
	switch {
	case end < windowAlign: // nothing changed
		end = windowAlign
	case end-off < windowAlign: // a tail shorter than a window
		off -= windowAlign
	}
	return off, end
}

// View returns the full-width compacted form of an expanded delta: its
// support and, without copies, its gamma non-zero blocks, which are the
// blocks of the input. The input must be a uniform block vector (every
// block the same non-zero length).
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
// same shape, each changed block at its own window. Each pair of blocks is
// compared first; where two differ, the comparison also finds the bytes
// they differ in, and only the window of that pair is XORed, into fresh
// memory, so gamma, the support and the windows come out of the one pass
// and neither input is written.
func Diff(prev, next [][]byte) (CompactDelta, error) {
	if len(prev) != len(next) {
		return CompactDelta{}, fmt.Errorf("delta: version block counts differ: %d vs %d", len(prev), len(next))
	}
	if len(prev) == 0 || len(prev[0]) == 0 {
		return CompactDelta{}, fmt.Errorf("delta: diffing an empty block vector")
	}
	c := CompactDelta{K: len(prev), BlockSize: len(prev[0])}
	width := 0
	for i := range prev {
		if len(prev[i]) != c.BlockSize || len(next[i]) != c.BlockSize {
			return CompactDelta{}, fmt.Errorf("delta: block %d sizes differ: %d vs %d, want %d", i, len(prev[i]), len(next[i]), c.BlockSize)
		}
		if !bytes.Equal(prev[i], next[i]) {
			width = max(width, c.cover(i, prev[i], next[i]))
		}
	}
	c.fill(prev, next, width)
	return c, nil
}

// Diff splits object into K blocks against prev, the blocks of the version
// before it, and returns the new version's blocks with the compact delta
// between the two, each changed block at its own window. Each block of
// object is compared with its predecessor first, the zero padding of a
// short object included. An unchanged block of next is prev's own block; a
// changed one is a fresh copy, and the window of it and its predecessor is
// XORed into fresh delta memory, so gamma, the support and the windows come
// out of the one pass. Neither prev nor object is written, and nothing
// returned aliases object. It fails, like Split, if object exceeds the
// capacity.
func (b Blocking) Diff(prev [][]byte, object []byte) (next [][]byte, d CompactDelta, err error) {
	if err := b.CheckLength(len(object)); err != nil {
		return nil, CompactDelta{}, err
	}
	if err := b.checkShape(prev); err != nil {
		return nil, CompactDelta{}, err
	}
	next = make([][]byte, b.K)
	d = CompactDelta{K: b.K, BlockSize: b.BlockSize}
	width := 0
	for i, old := range prev {
		lo := min(i*b.BlockSize, len(object))
		src := object[lo:min(lo+b.BlockSize, len(object))]
		if bytes.Equal(old[:len(src)], src) && isZeroBlock(old[len(src):]) {
			next[i] = old
			continue
		}
		next[i] = make([]byte, b.BlockSize)
		copy(next[i], src)
		width = max(width, d.cover(i, old, next[i]))
	}
	d.fill(prev, next, width)
	return next, d, nil
}

// cover adds block s, where a and b (of one length) differ, to the support,
// and the offset of its window to Offs, and returns the window's width.
// Each end of the bytes they differ in is found by comparing runs of
// bytes, then single bytes.
func (c *CompactDelta) cover(s int, a, b []byte) (width int) {
	const run = 256
	lo, hi := 0, len(a)
	for lo+run <= hi && bytes.Equal(a[lo:lo+run], b[lo:lo+run]) {
		lo += run
	}
	for a[lo] == b[lo] {
		lo++
	}
	for hi-run >= lo && bytes.Equal(a[hi-run:hi], b[hi-run:hi]) {
		hi -= run
	}
	for a[hi-1] == b[hi-1] {
		hi--
	}
	off, end := windowOf(len(a), lo, hi)
	c.Support, c.Offs = append(c.Support, s), append(c.Offs, off)
	return end - off
}

// fill sets the blocks of a delta that cover built to prev + next at their
// windows, each widened to width, the widest of them, in one fresh
// allocation. A window widens to the right or, where that would leave the
// block, to the left, so that it ends at the block's end.
func (c *CompactDelta) fill(prev, next [][]byte, width int) {
	if len(c.Support) == 0 {
		return
	}
	c.Blocks = make([][]byte, len(c.Support))
	buf := make([]byte, len(c.Support)*width)
	for i, s := range c.Support {
		off := min(c.Offs[i], c.BlockSize-width)
		z := buf[i*width : (i+1)*width : (i+1)*width]
		copy(z, next[s][off:off+width])
		gf.AddSlice(z, prev[s][off:off+width])
		c.Offs[i], c.Blocks[i] = off, z
	}
}

// Shared returns the delta with every block at one offset, as a reader
// that knows one offset for the whole delta places it. A delta whose blocks
// share one already is returned as it is; any other moves to the one
// window of all its blocks' non-zero bytes together (windowOf), in fresh
// memory.
func (c CompactDelta) Shared() CompactDelta {
	if !slices.ContainsFunc(c.Offs, func(off int) bool { return off != c.Offs[0] }) {
		return c
	}
	lo, hi := c.BlockSize, 0
	for i, blk := range c.Blocks {
		if first := firstNonZero(blk); first < len(blk) {
			lo, hi = min(lo, c.Off(i)+first), max(hi, c.Off(i)+endNonZero(blk))
		}
	}
	off, end := windowOf(c.BlockSize, min(lo, hi), hi)
	w := end - off
	s := CompactDelta{K: c.K, BlockSize: c.BlockSize, Offs: make([]int, len(c.Support)), Support: c.Support, Blocks: make([][]byte, len(c.Support))}
	buf := make([]byte, len(c.Support)*w)
	for i, blk := range c.Blocks {
		z := buf[i*w : (i+1)*w : (i+1)*w]
		if first := firstNonZero(blk); first < len(blk) {
			copy(z[c.Off(i)+first-off:], blk[first:endNonZero(blk)])
		}
		s.Offs[i], s.Blocks[i] = off, z
	}
	return s
}

// ApplyTo returns base + c without expanding c: a vector that shares with
// base the K - gamma blocks outside the support and holds one new block,
// base[s] + c's window of block s, for each s in it. XOR deltas are
// self-inverse, so the same call goes from a delta's base to its version
// and back. Neither base nor c is written, and the result is read-only
// wherever base is; a delta with an empty support returns base itself.
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
		gf.AddSlice(out[s][c.Off(i):c.Off(i)+len(c.Blocks[i])], c.Blocks[i])
	}
	return out, nil
}

// Expand reconstructs the full k-block delta: each support block's window
// in place, zero bytes everywhere else. The result is a fresh allocation.
func (c CompactDelta) Expand() ([][]byte, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	blocks := make([][]byte, c.K)
	for i := range blocks {
		blocks[i] = make([]byte, c.BlockSize)
	}
	for i, s := range c.Support {
		copy(blocks[s][c.Off(i):], c.Blocks[i])
	}
	return blocks, nil
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
