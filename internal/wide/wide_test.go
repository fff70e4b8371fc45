package wide

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

func randBlocks(rng *rand.Rand, k, byteLen int) [][]byte {
	blocks := make([][]byte, k)
	for i := range blocks {
		blocks[i] = make([]byte, byteLen)
		rng.Read(blocks[i])
	}
	return blocks
}

func blocksEqual(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestNewCauchyValidation(t *testing.T) {
	tests := []struct {
		name    string
		n, k    int
		wantErr bool
	}{
		{"small", 6, 3, false},
		{"beyond gf256", 300, 100, false},
		{"n == k", 4, 4, true},
		{"zero k", 4, 0, true},
		{"field exhausted", 65000, 1000, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, err := NewCauchy(tt.n, tt.k)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if err == nil && (c.N() != tt.n || c.K() != tt.k) {
				t.Errorf("shape = (%d,%d)", c.N(), c.K())
			}
		})
	}
}

func TestEncodeDecodeRoundTripWideCode(t *testing.T) {
	// A configuration impossible over GF(2^8): n+k = 450 > 256.
	rng := rand.New(rand.NewSource(91))
	c, err := NewCauchy(300, 150)
	if err != nil {
		t.Fatal(err)
	}
	blocks := randBlocks(rng, 150, 32)
	shards, err := c.Encode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 300 {
		t.Fatalf("shards = %d", len(shards))
	}
	// Decode from a random subset of k shards.
	rows := rng.Perm(300)[:150]
	sub := make([][]byte, len(rows))
	for i, r := range rows {
		sub[i] = shards[r]
	}
	got, err := c.DecodeFull(rows, sub)
	if err != nil {
		t.Fatal(err)
	}
	if !blocksEqual(got, blocks) {
		t.Error("wide decode mismatch")
	}
}

func TestDecodeFullAllPatternsSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	c, err := NewCauchy(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	blocks := randBlocks(rng, 3, 8)
	shards, err := c.Encode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{0, 1, 2}
	for {
		sub := [][]byte{shards[idx[0]], shards[idx[1]], shards[idx[2]]}
		got, err := c.DecodeFull(append([]int(nil), idx...), sub)
		if err != nil {
			t.Fatalf("rows %v: %v", idx, err)
		}
		if !blocksEqual(got, blocks) {
			t.Fatalf("rows %v: mismatch", idx)
		}
		// next combination of 3 from 6
		i := 2
		for i >= 0 && idx[i] == 3+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < 3; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

func TestDecodeSparseWideCode(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	c, err := NewCauchy(280, 140) // n+k > 256
	if err != nil {
		t.Fatal(err)
	}
	for gamma := 0; gamma <= 3; gamma++ {
		z := make([][]byte, 140)
		for i := range z {
			z[i] = make([]byte, 16)
		}
		for _, j := range rng.Perm(140)[:gamma] {
			rng.Read(z[j])
			z[j][0] |= 1
		}
		shards, err := c.Encode(z)
		if err != nil {
			t.Fatal(err)
		}
		// Any 2*gamma rows work (Cauchy): pick random distinct ones.
		rowCount := max(2*gamma, 1)
		rows := rng.Perm(280)[:rowCount]
		sub := make([][]byte, rowCount)
		for i, r := range rows {
			sub[i] = shards[r]
		}
		got, err := c.DecodeSparse(rows, sub, gamma)
		if err != nil {
			t.Fatalf("gamma=%d: %v", gamma, err)
		}
		if !blocksEqual(got, z) {
			t.Fatalf("gamma=%d: sparse recovery mismatch", gamma)
		}
	}
}

func TestSparseNeedsFewerSymbolsThanFull(t *testing.T) {
	// The SEC I/O claim carries over to the wide field: a 1-sparse delta
	// of a k=140 object needs 2 shards, not 140.
	rng := rand.New(rand.NewSource(94))
	c, err := NewCauchy(280, 140)
	if err != nil {
		t.Fatal(err)
	}
	z := make([][]byte, 140)
	for i := range z {
		z[i] = make([]byte, 4)
	}
	rng.Read(z[77])
	z[77][0] |= 1
	shards, err := c.Encode(z)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DecodeSparse([]int{13, 207}, [][]byte{shards[13], shards[207]}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !blocksEqual(got, z) {
		t.Error("2-shard sparse recovery failed")
	}
}

func TestEncodeErrors(t *testing.T) {
	c, err := NewCauchy(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Encode([][]byte{{1, 2}, {3, 4}}); err == nil {
		t.Error("wrong block count: want error")
	}
	if _, err := c.Encode([][]byte{{1}, {2}, {3}}); err == nil {
		t.Error("odd block length: want error")
	}
	if _, err := c.Encode([][]byte{{1, 2}, {3, 4}, {5, 6, 7, 8}}); err == nil {
		t.Error("ragged blocks: want error")
	}
}

func TestDecodeErrors(t *testing.T) {
	c, err := NewCauchy(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	shard := []byte{0, 0}
	if _, err := c.DecodeFull([]int{0}, [][]byte{shard, shard}); err == nil {
		t.Error("count mismatch: want error")
	}
	if _, err := c.DecodeFull([]int{0, 0, 0}, [][]byte{shard, shard, shard}); err == nil {
		t.Error("too few distinct: want error")
	}
	if _, err := c.DecodeFull([]int{0, 1, 9}, [][]byte{shard, shard, shard}); err == nil {
		t.Error("row out of range: want error")
	}
	if _, err := c.DecodeSparse([]int{0, 1}, [][]byte{shard, shard}, 2); err == nil {
		t.Error("gamma too large: want error")
	}
	if _, err := c.DecodeSparse([]int{0, 9}, [][]byte{shard, shard}, 1); err == nil {
		t.Error("sparse row out of range: want error")
	}
}

func TestDecodeSparseInconsistent(t *testing.T) {
	c, err := NewCauchy(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Observations from a 3-dense vector cannot be explained 1-sparsely.
	z := [][]byte{{1, 0}, {2, 0}, {3, 0}}
	shards, err := c.Encode(z)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodeSparse([]int{0, 1, 2}, shards[:3], 1); err == nil {
		t.Error("inconsistent observations: want error")
	}
}

func TestWordConversionRoundTrip(t *testing.T) {
	blocks := [][]byte{{0x01, 0x02, 0xFF, 0xEE}}
	words, wordLen, err := toWords(blocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wordLen != 2 || words[0][0] != 0x0201 || words[0][1] != 0xEEFF {
		t.Fatalf("words = %v (len %d)", words, wordLen)
	}
	if got := fromWords(words[0]); !bytes.Equal(got, blocks[0]) {
		t.Errorf("round trip = %v", got)
	}
}

// TestEncodeSparseIntoMatchesExpandedEncode holds the sparse encoder to the
// dense one over GF(2^16), as FuzzEncodeSparseInto does for the GF(2^8)
// backend: for gamma = 0..k, on two shapes, EncodeSparseInto into
// garbage-filled buffers writes EncodeInto of the expanded vector byte for
// byte. Malformed supports and destinations are refused.
func TestEncodeSparseIntoMatchesExpandedEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	full, err := NewCauchy(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := NewCauchy(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	const byteLen = 18
	for _, c := range []*Code{full, narrow} {
		for gamma := 0; gamma <= c.K(); gamma++ {
			support := rng.Perm(c.K())[:gamma]
			sort.Ints(support)
			expanded := make([][]byte, c.K())
			for j := range expanded {
				expanded[j] = make([]byte, byteLen)
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
			got := randBlocks(rng, c.N(), byteLen)
			if err := c.EncodeSparseInto(support, blocks, got); err != nil {
				t.Fatalf("(%d,%d) support %v: %v", c.N(), c.K(), support, err)
			}
			if !blocksEqual(got, want) {
				t.Errorf("(%d,%d) support %v: differs from the dense encoding", c.N(), c.K(), support)
			}
		}
	}
	two := randBlocks(rng, 2, byteLen)
	for _, tc := range []struct {
		name    string
		support []int
		blocks  [][]byte
		dst     [][]byte
	}{
		{"support shorter than blocks", []int{0}, two, randBlocks(rng, 9, byteLen)},
		{"descending", []int{3, 1}, two, randBlocks(rng, 9, byteLen)},
		{"index out of range", []int{1, 5}, two, randBlocks(rng, 9, byteLen)},
		{"odd block length", []int{0}, randBlocks(rng, 1, 3), randBlocks(rng, 9, 3)},
		{"destination count", []int{0, 1}, two, randBlocks(rng, 8, byteLen)},
		{"zero vector, destination count", nil, nil, randBlocks(rng, 8, byteLen)},
		{"zero vector, ragged destination", nil, nil, append(randBlocks(rng, 8, byteLen), make([]byte, 2))},
	} {
		if err := full.EncodeSparseInto(tc.support, tc.blocks, tc.dst); err == nil {
			t.Errorf("%s: EncodeSparseInto accepted it", tc.name)
		}
	}
}
