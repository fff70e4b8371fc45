package delta

import (
	"math/rand"
	"reflect"
	"testing"
)

func randomSparseDelta(rng *rand.Rand, k, blockSize, gamma int) [][]byte {
	blocks := make([][]byte, k)
	for i := range blocks {
		blocks[i] = make([]byte, blockSize)
	}
	for _, s := range rng.Perm(k)[:gamma] {
		for {
			rng.Read(blocks[s])
			if !isZeroBlock(blocks[s]) {
				break
			}
		}
	}
	return blocks
}

// narrow is the reference window finder: the full-width c with each block
// cut to its own window, windowOf the bytes from its first non-zero byte to
// its last, found from the bytes themselves, and every window widened to
// the widest: to the right, or to the left where the block ends first. Its
// blocks are sub-slices of c's; a delta that changed nothing comes back as
// it is. Diff finds the windows while it compares; FuzzDiff holds it to
// this one.
func narrow(c CompactDelta) CompactDelta {
	if len(c.Support) == 0 {
		return c
	}
	n, width := c, 0
	n.Offs, n.Blocks = make([]int, len(c.Blocks)), make([][]byte, len(c.Blocks))
	for i, blk := range c.Blocks {
		off, end := windowOf(c.BlockSize, firstNonZero(blk), endNonZero(blk))
		n.Offs[i], width = off, max(width, end-off)
	}
	for i, blk := range c.Blocks {
		off := min(n.Offs[i], c.BlockSize-width)
		n.Offs[i], n.Blocks[i] = off, blk[off:off+width:off+width]
	}
	return n
}

func TestCompactExpandRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range []int{1, 3, 8, 17} {
		for _, blockSize := range []int{1, 7, 64} {
			for gamma := 0; gamma <= k; gamma += max(1, k/3) {
				d := randomSparseDelta(rng, k, blockSize, gamma)
				c, err := View(d)
				if err != nil {
					t.Fatalf("View(k=%d,bs=%d,gamma=%d): %v", k, blockSize, gamma, err)
				}
				if c.Gamma() != gamma {
					t.Fatalf("gamma = %d, want %d", c.Gamma(), gamma)
				}
				if got := Sparsity(d); got != gamma {
					t.Fatalf("sparsity %d, want %d", got, gamma)
				}
				back, err := c.Expand()
				if err != nil {
					t.Fatalf("Expand: %v", err)
				}
				if !Equal(d, back) {
					t.Fatalf("expand(compact) != identity for k=%d bs=%d gamma=%d", k, blockSize, gamma)
				}
			}
		}
	}
}

// TestDiffOfVectors holds the compare-then-XOR diff of two materialized
// versions, the one compaction stores as it comes, to the expanding
// reference: the same support, windows and blocks as a view of Compute
// narrowed to its windows, every delta block a fresh allocation, the inputs
// untouched, and a shape mismatch refused. Each change at 512-byte blocks
// is cut to a random byte range of its own, so its delta is windowed, each
// block at its own offset.
func TestDiffOfVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k = 7
	for _, blockSize := range []int{24, 512} {
		for gamma := 0; gamma <= k; gamma++ {
			prev := randomSparseDelta(rng, k, blockSize, k)
			change := randomSparseDelta(rng, k, blockSize, gamma)
			for _, blk := range change {
				if lo := rng.Intn(blockSize); blockSize == 512 && !isZeroBlock(blk) {
					hi := lo + 1 + rng.Intn(blockSize-lo)
					clear(blk[:lo])
					clear(blk[hi:])
					blk[lo] |= 1
				}
			}
			next, err := Compute(prev, change)
			if err != nil {
				t.Fatal(err)
			}
			for i := range next {
				if isZeroBlock(change[i]) {
					next[i] = prev[i] // shared, as a walk's versions are
				}
			}
			before, beforeNext := clone(prev), clone(next)
			got, err := Diff(prev, next)
			if err != nil {
				t.Fatal(err)
			}
			want, err := View(change)
			if err != nil {
				t.Fatal(err)
			}
			if want = narrow(want); !reflect.DeepEqual(got, want) {
				t.Fatalf("gamma=%d, block size %d: Diff = %+v, want %+v", gamma, blockSize, got, want)
			}
			if !Equal(prev, before) || !Equal(next, beforeNext) {
				t.Fatalf("gamma=%d: Diff wrote to an input", gamma)
			}
			for i, s := range got.Support {
				if &got.Blocks[i][0] == &prev[s][0] || &got.Blocks[i][0] == &next[s][0] {
					t.Fatalf("gamma=%d: delta block %d aliases an input", gamma, s)
				}
			}
		}
	}
	for _, bad := range [][2][][]byte{
		{{{1}}, {{1}, {2}}},
		{{{1}}, {{1, 2}}},
		{nil, nil},
		{{{}}, {{}}},
	} {
		if _, err := Diff(bad[0], bad[1]); err == nil {
			t.Errorf("Diff(%v, %v): want error", bad[0], bad[1])
		}
	}
}

func TestCompactValidation(t *testing.T) {
	cases := []struct {
		name string
		c    CompactDelta
	}{
		{"zero k", CompactDelta{K: 0, BlockSize: 1}},
		{"zero block size", CompactDelta{K: 1, BlockSize: 0}},
		{"support out of range", CompactDelta{K: 2, BlockSize: 1, Support: []int{2}, Blocks: [][]byte{{1}}}},
		{"support not increasing", CompactDelta{K: 4, BlockSize: 1, Support: []int{1, 1}, Blocks: [][]byte{{1}, {2}}}},
		{"block past the block size", CompactDelta{K: 2, BlockSize: 2, Offs: []int{1}, Support: []int{0}, Blocks: [][]byte{{1, 2}}}},
		{"second block past the block size", CompactDelta{K: 2, BlockSize: 2, Offs: []int{0, 1}, Support: []int{0, 1}, Blocks: [][]byte{{1, 2}, {3, 4}}}},
		{"blocks of two widths", CompactDelta{K: 2, BlockSize: 2, Support: []int{0, 1}, Blocks: [][]byte{{1, 2}, {3}}}},
		{"empty block", CompactDelta{K: 2, BlockSize: 2, Support: []int{0}, Blocks: [][]byte{{}}}},
		{"negative offset", CompactDelta{K: 2, BlockSize: 2, Offs: []int{-1}, Support: []int{0}, Blocks: [][]byte{{1}}}},
		{"offsets/support misaligned", CompactDelta{K: 2, BlockSize: 2, Offs: []int{0, 1}, Support: []int{0}, Blocks: [][]byte{{1}}}},
		{"support/blocks misaligned", CompactDelta{K: 2, BlockSize: 1, Support: []int{0, 1}, Blocks: [][]byte{{1}}}},
	}
	for _, tc := range cases {
		if _, err := tc.c.Expand(); err == nil {
			t.Errorf("%s: Expand accepted an invalid compact form", tc.name)
		}
		if _, err := tc.c.ApplyTo(make([][]byte, tc.c.K)); err == nil {
			t.Errorf("%s: ApplyTo accepted an invalid compact form", tc.name)
		}
	}
}

// FuzzCompactDelta holds the compact forms the archive uses to the expanded
// vector they stand for. The vector is k zero blocks with raw written into
// them from byte at on, so its non-zero bytes may sit in a narrow window of
// one block, or at the end of one block and the start of the next. View,
// then narrow, then Expand reproduces the vector byte-identically; each of
// narrow's windows covers its block's non-zero bytes, starts on an aligned
// byte or ends at the block's end, and is as wide as the widest block's own
// window (windowOf); and ApplyTo of the windowed form equals ApplyTo of the
// full-width form. Shared puts every block at one offset and stands for
// the same vector. The seed corpus
// lives in testdata/fuzz/FuzzCompactDelta.
func FuzzCompactDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, k, blockSize, at int, raw []byte) {
		k, blockSize = 1+int(uint(k)%16), 1+int(uint(blockSize)%1024)
		flat := make([]byte, k*blockSize)
		copy(flat[int(uint(at)%uint(len(flat))):], raw)
		blocks, base := make([][]byte, k), make([][]byte, k)
		for i := range blocks {
			blocks[i] = flat[i*blockSize : (i+1)*blockSize]
			base[i] = make([]byte, blockSize)
			for j := range base[i] {
				base[i][j] = byte(i*31 + j)
			}
		}
		full, err := View(blocks)
		if err != nil {
			t.Fatalf("View rejected a valid vector: %v", err)
		}
		windowed := narrow(full)
		width, widest := windowed.Width(), 0
		for i, s := range windowed.Support {
			blk := blocks[s]
			own, ownEnd := windowOf(blockSize, firstNonZero(blk), endNonZero(blk))
			widest = max(widest, ownEnd-own)
			off, end := windowed.Off(i), windowed.Off(i)+width
			switch {
			case blockSize < 2*windowAlign && (off != 0 || end != blockSize):
				t.Fatalf("a %d-byte block was windowed to [%d,%d)", blockSize, off, end)
			case width < min(windowAlign, blockSize) || off < 0 || end > blockSize:
				t.Fatalf("window [%d,%d) of a %d-byte block", off, end, blockSize)
			case off%windowAlign != 0 && end != blockSize:
				t.Fatalf("block %d's window [%d,%d) is not aligned", s, off, end)
			case firstNonZero(blk) < off || endNonZero(blk) > end:
				t.Fatalf("block %d's window [%d,%d) misses bytes [%d,%d)", s, off, end, firstNonZero(blk), endNonZero(blk))
			}
		}
		if windowed.Gamma() > 0 && width != widest {
			t.Fatalf("windows are %d bytes wide, the widest block needs %d", width, widest)
		}
		shared := windowed.Shared()
		for i := range shared.Support {
			if shared.Off(i) != shared.Off(0) {
				t.Fatalf("Shared left blocks at offsets %v", shared.Offs)
			}
		}
		for _, form := range []CompactDelta{windowed, shared} {
			expanded, err := form.Expand()
			if err != nil {
				t.Fatalf("Expand: %v", err)
			}
			if !Equal(blocks, expanded) {
				t.Fatalf("View, narrow, Expand is not the identity (offsets %v)", form.Offs)
			}
			want, err := full.ApplyTo(base)
			if err != nil {
				t.Fatal(err)
			}
			got, err := form.ApplyTo(base)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(got, want) {
				t.Fatalf("ApplyTo of the form at offsets %v differs from the full-width form's", form.Offs)
			}
		}
	})
}

func BenchmarkCompactExpand(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := randomSparseDelta(rng, 10, 4096, 2)
	b.SetBytes(int64(10 * 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := View(d)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Expand(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestApplyToMatchesApplyAndSharesTheRest holds the sparse application of
// a delta to the expanding one it replaces on the read path: the same
// bytes, forward and back, with base untouched, a new block for every
// block in the support and base's own block everywhere else.
func TestApplyToMatchesApplyAndSharesTheRest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const k, blockSize = 6, 32
	for gamma := 0; gamma <= k; gamma++ {
		base := make([][]byte, k)
		for i := range base {
			base[i] = make([]byte, blockSize)
			rng.Read(base[i])
		}
		before := clone(base)
		d := randomSparseDelta(rng, k, blockSize, gamma)
		want, err := Compute(base, d)
		if err != nil {
			t.Fatal(err)
		}
		view, err := View(d)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range view.Support {
			if &view.Blocks[i][0] != &d[s][0] {
				t.Fatalf("gamma=%d: View must share block %d of its input", gamma, s)
			}
		}
		got, err := view.ApplyTo(base)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, want) {
			t.Fatalf("gamma=%d: ApplyTo differs from Apply", gamma)
		}
		if !Equal(base, before) {
			t.Fatalf("gamma=%d: ApplyTo wrote to its base", gamma)
		}
		inSupport := make(map[int]bool)
		for _, s := range view.Support {
			inSupport[s] = true
		}
		for i := range got {
			if shared := &got[i][0] == &base[i][0]; shared == inSupport[i] {
				t.Errorf("gamma=%d block %d: shared with base = %v, in the support = %v", gamma, i, shared, inSupport[i])
			}
		}
		back, err := view.ApplyTo(got)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(back, before) {
			t.Fatalf("gamma=%d: applying the delta twice does not return the base", gamma)
		}
	}
	c := CompactDelta{K: k, BlockSize: blockSize, Support: []int{1}, Blocks: [][]byte{make([]byte, blockSize)}}
	if _, err := c.ApplyTo(make([][]byte, k-1)); err == nil {
		t.Error("ApplyTo accepted a base with the wrong block count")
	}
	short := make([][]byte, k)
	for i := range short {
		short[i] = make([]byte, blockSize-1)
	}
	if _, err := c.ApplyTo(short); err == nil {
		t.Error("ApplyTo accepted a base with the wrong block size")
	}
}
