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
// versions to the expanding reference: the same support and blocks as a
// view of Compute, every delta block a fresh allocation, the inputs
// untouched, and a shape mismatch refused.
func TestDiffOfVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k, blockSize = 7, 24
	for gamma := 0; gamma <= k; gamma++ {
		prev := randomSparseDelta(rng, k, blockSize, k)
		change := randomSparseDelta(rng, k, blockSize, gamma)
		next, err := Apply(prev, change)
		if err != nil {
			t.Fatal(err)
		}
		for i := range next {
			if isZeroBlock(change[i]) {
				next[i] = prev[i] // shared, as a walk's versions are
			}
		}
		before, beforeNext := Clone(prev), Clone(next)
		got, err := Diff(prev, next)
		if err != nil {
			t.Fatal(err)
		}
		want, err := View(change)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("gamma=%d: Diff = %+v, want %+v", gamma, got, want)
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

func TestCompactMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 5, 9, 32} {
		for gamma := 0; gamma <= k; gamma += max(1, k/4) {
			d := randomSparseDelta(rng, k, 16, gamma)
			c, err := View(d)
			if err != nil {
				t.Fatal(err)
			}
			wire, err := c.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var back CompactDelta
			if err := back.UnmarshalBinary(wire); err != nil {
				t.Fatalf("UnmarshalBinary(k=%d,gamma=%d): %v", k, gamma, err)
			}
			expanded, err := back.Expand()
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(d, expanded) {
				t.Fatalf("marshal round trip lost data for k=%d gamma=%d", k, gamma)
			}
		}
	}
}

func TestCompactMarshalSavesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k, blockSize := 16, 256
	d := randomSparseDelta(rng, k, blockSize, 2)
	c, err := View(d)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if full := k * blockSize; len(wire) >= full/4 {
		t.Errorf("compact record is %d bytes, want well under %d", len(wire), full)
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
		{"block length mismatch", CompactDelta{K: 2, BlockSize: 2, Support: []int{0}, Blocks: [][]byte{{1}}}},
		{"support/blocks misaligned", CompactDelta{K: 2, BlockSize: 1, Support: []int{0, 1}, Blocks: [][]byte{{1}}}},
	}
	for _, tc := range cases {
		if _, err := tc.c.Expand(); err == nil {
			t.Errorf("%s: Expand accepted an invalid compact form", tc.name)
		}
		if _, err := tc.c.MarshalBinary(); err == nil {
			t.Errorf("%s: MarshalBinary accepted an invalid compact form", tc.name)
		}
	}
}

func TestUnmarshalRejectsDamage(t *testing.T) {
	c, err := View([][]byte{{1, 2}, {0, 0}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var cd CompactDelta
	if err := cd.UnmarshalBinary(wire[:len(wire)-1]); err == nil {
		t.Error("truncated record accepted")
	}
	if err := cd.UnmarshalBinary(append(append([]byte(nil), wire...), 0)); err == nil {
		t.Error("oversized record accepted")
	}
	bad := append([]byte(nil), wire...)
	bad[0] = 'X'
	if err := cd.UnmarshalBinary(bad); err == nil {
		t.Error("bad magic accepted")
	}
	// A bitmap bit beyond k must be rejected, not silently ignored.
	bad = append([]byte(nil), wire...)
	bad[12] |= 1 << 7 // k=3: bit 7 is unused
	if err := cd.UnmarshalBinary(bad); err == nil {
		t.Error("unused bitmap bit accepted")
	}
}

// FuzzCompactDelta round-trips arbitrary block vectors through the compact
// form and its serialization: view -> copy -> marshal -> unmarshal ->
// expand must reproduce the input byte-identically, and unmarshal of
// arbitrary bytes must never panic or over-allocate.
func FuzzCompactDelta(f *testing.F) {
	f.Add(3, 4, []byte{1, 2, 3, 4, 0, 0, 0, 0, 9, 9, 9, 9})
	f.Add(1, 1, []byte{0})
	f.Add(8, 2, make([]byte, 16))
	f.Fuzz(func(t *testing.T, k, blockSize int, raw []byte) {
		if k > 0 && blockSize > 0 && k <= 64 && blockSize <= 64 && len(raw) >= k*blockSize {
			blocks := make([][]byte, k)
			for i := range blocks {
				blocks[i] = raw[i*blockSize : (i+1)*blockSize]
			}
			c, err := View(blocks)
			if err != nil {
				t.Fatalf("View rejected a valid vector: %v", err)
			}
			for i, blk := range c.Blocks {
				c.Blocks[i] = append([]byte(nil), blk...)
			}
			wire, err := c.MarshalBinary()
			if err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}
			var back CompactDelta
			if err := back.UnmarshalBinary(wire); err != nil {
				t.Fatalf("UnmarshalBinary of own output: %v", err)
			}
			expanded, err := back.Expand()
			if err != nil {
				t.Fatalf("Expand: %v", err)
			}
			if !Equal(blocks, expanded) {
				t.Fatal("round trip not byte-identical")
			}
		}
		// Adversarial parse: raw bytes as a record must fail cleanly or
		// yield a form that expands.
		var cd CompactDelta
		if err := cd.UnmarshalBinary(raw); err == nil {
			if _, err := cd.Expand(); err != nil {
				t.Fatalf("accepted record does not expand: %v", err)
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
		before := Clone(base)
		d := randomSparseDelta(rng, k, blockSize, gamma)
		want, err := Apply(base, d)
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
