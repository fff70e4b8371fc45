package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/secarchive/sec/internal/delta"
)

// widestShapes are the widest code of each construction that GF(2^8) holds
// with k = 100: a non-systematic Cauchy code needs n+k distinct field points
// and a systematic one n. One row more is refused (TestNewValidation).
var widestShapes = []struct {
	kind Kind
	n, k int
}{
	{NonSystematicCauchy, 156, 100},
	{SystematicCauchy, 256, 100},
}

// TestEncodeDecodeRoundTripWideCode: at the edge of the field, k shards
// drawn at random from the n decode every construction's codeword.
func TestEncodeDecodeRoundTripWideCode(t *testing.T) {
	for _, shape := range widestShapes {
		t.Run(fmt.Sprintf("%v(%d,%d)", shape.kind, shape.n, shape.k), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(91 + shape.n)))
			c, err := New(shape.kind, shape.n, shape.k)
			if err != nil {
				t.Fatal(err)
			}
			blocks := randBlocks(rng, shape.k, 16)
			shards, err := c.Encode(blocks)
			if err != nil {
				t.Fatal(err)
			}
			if len(shards) != shape.n {
				t.Fatalf("shards = %d, want %d", len(shards), shape.n)
			}
			rows := rng.Perm(shape.n)[:shape.k]
			sub := make([][]byte, len(rows))
			for i, r := range rows {
				sub[i] = shards[r]
			}
			got, err := c.DecodeFull(rows, sub)
			if err != nil {
				t.Fatal(err)
			}
			if !delta.Equal(got, blocks) {
				t.Error("decode at the field edge differs from the data")
			}
		})
	}
}

// TestDecodeSparseWideCode: on the widest non-systematic Cauchy code every
// square submatrix is nonsingular, so any 2*gamma rows recover a
// gamma-sparse vector of k = 100 blocks (one row for the zero vector).
func TestDecodeSparseWideCode(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	c, err := New(NonSystematicCauchy, 156, 100)
	if err != nil {
		t.Fatal(err)
	}
	for gamma := 0; gamma <= 3; gamma++ {
		t.Run(fmt.Sprintf("gamma=%d", gamma), func(t *testing.T) {
			z := sparseBlocks(rng, c.K(), 16, gamma)
			shards, err := c.Encode(z)
			if err != nil {
				t.Fatal(err)
			}
			rows := rng.Perm(c.N())[:max(2*gamma, 1)]
			sub := make([][]byte, len(rows))
			for i, r := range rows {
				sub[i] = shards[r]
			}
			got, err := c.DecodeSparse(rows, sub, gamma)
			if err != nil {
				t.Fatalf("rows %v: %v", rows, err)
			}
			if !delta.Equal(got, z) {
				t.Fatalf("rows %v: sparse recovery differs", rows)
			}
		})
	}
}

// TestSparseNeedsFewerSymbolsThanFull: the SEC I/O claim at the edge of the
// field - a 1-sparse delta of a k = 100 object reads back from 2 shards,
// where a full decode needs 100.
func TestSparseNeedsFewerSymbolsThanFull(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	c, err := New(NonSystematicCauchy, 156, 100)
	if err != nil {
		t.Fatal(err)
	}
	z := make([][]byte, c.K())
	for i := range z {
		z[i] = make([]byte, 4)
	}
	rng.Read(z[77])
	z[77][0] |= 1
	shards, err := c.Encode(z)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DecodeSparse([]int{13, 147}, [][]byte{shards[13], shards[147]}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Equal(got, z) {
		t.Error("2-shard sparse recovery failed")
	}
	if _, err := c.DecodeFull([]int{13, 147}, [][]byte{shards[13], shards[147]}); err == nil {
		t.Error("DecodeFull from 2 of 100 shards: want error")
	}
}

// TestDecodeSparseInconsistent: three observations of a 3-dense vector have
// no 1-sparse explanation, and DecodeSparse says so rather than return a
// vector that does not encode to them.
func TestDecodeSparseInconsistent(t *testing.T) {
	for _, kind := range allKinds {
		c, err := New(kind, 6, 3)
		if err != nil {
			t.Fatal(err)
		}
		z := [][]byte{{1, 0}, {2, 0}, {3, 0}}
		shards, err := c.Encode(z)
		if err != nil {
			t.Fatal(err)
		}
		rows := []int{3, 4, 5}
		if got, err := c.DecodeSparse(rows, shards[3:], 1); err == nil {
			t.Errorf("%v: inconsistent observations decoded to %v", kind, got)
		}
	}
}

// TestEncodeSparseIntoWideCode holds the sparse encoder to the dense one at
// the edge of the field, past the shapes FuzzEncodeSparseInto draws: for
// gamma 0, 1, 2, k/2 and k, EncodeSparseInto into garbage-filled buffers
// writes EncodeInto of the expanded vector byte for byte.
func TestEncodeSparseIntoWideCode(t *testing.T) {
	for _, shape := range widestShapes {
		t.Run(fmt.Sprintf("%v(%d,%d)", shape.kind, shape.n, shape.k), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(95 + shape.n)))
			c, err := New(shape.kind, shape.n, shape.k)
			if err != nil {
				t.Fatal(err)
			}
			const blockLen = 24
			for _, gamma := range []int{0, 1, 2, c.K() / 2, c.K()} {
				support := rng.Perm(c.K())[:gamma]
				sort.Ints(support)
				expanded := make([][]byte, c.K())
				for j := range expanded {
					expanded[j] = make([]byte, blockLen)
				}
				blocks := make([][]byte, gamma)
				for j, s := range support {
					rng.Read(expanded[s])
					blocks[j] = expanded[s]
				}
				want, err := c.Encode(expanded)
				if err != nil {
					t.Fatal(err)
				}
				got := randBlocks(rng, c.N(), blockLen)
				if err := c.EncodeSparseInto(support, blocks, got); err != nil {
					t.Fatalf("gamma %d: %v", gamma, err)
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("gamma %d: row %d differs from the dense encoding", gamma, i)
					}
				}
			}
		})
	}
}
