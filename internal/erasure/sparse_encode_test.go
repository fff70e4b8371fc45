package erasure

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// FuzzEncodeSparseInto holds the sparse encoder to the dense one: for every
// construction, punctured or not, and a seeded random support of any size
// from 0 to k, EncodeSparseInto into garbage-filled buffers writes, byte for
// byte, EncodeInto of the expanded vector. The seed corpus lives in
// testdata/fuzz/FuzzEncodeSparseInto.
func FuzzEncodeSparseInto(f *testing.F) {
	f.Fuzz(func(t *testing.T, kindSel, n, k, punctured, blockLen int, seed int64) {
		kind := allKinds[uint(kindSel)%uint(len(allKinds))]
		k = 1 + int(uint(k)%12)
		n = k + 1 + int(uint(n)%8)
		punctured = int(uint(punctured) % uint(n-k))
		blockLen = 1 + int(uint(blockLen)%64)
		code, err := New(kind, n, k)
		if err != nil {
			t.Fatal(err)
		}
		if punctured > 0 {
			if code, err = code.Punctured(punctured); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		support := rng.Perm(k)[:rng.Intn(k+1)]
		sort.Ints(support)
		expanded := make([][]byte, k)
		for j := range expanded {
			expanded[j] = make([]byte, blockLen)
		}
		blocks := make([][]byte, len(support))
		for j, s := range support {
			rng.Read(expanded[s])
			blocks[j] = expanded[s]
		}
		want := GetBuffers(code.N(), blockLen)
		defer want.Release()
		if err := code.EncodeInto(expanded, want.Blocks); err != nil {
			t.Fatal(err)
		}
		got := GetBuffers(code.N(), blockLen)
		defer got.Release()
		rng.Read(got.flat) // stale bytes, as a recycled buffer holds
		if err := code.EncodeSparseInto(support, blocks, got.Blocks); err != nil {
			t.Fatalf("%v(%d,%d) support %v: %v", kind, code.N(), k, support, err)
		}
		for i := range want.Blocks {
			if !bytes.Equal(got.Blocks[i], want.Blocks[i]) {
				t.Fatalf("%v(%d,%d) support %v: row %d differs from the dense encoding", kind, code.N(), k, support, i)
			}
		}
	})
}

// TestEncodeSparseIntoValidation: a support that does not describe the
// blocks, or a destination of the wrong shape, is refused.
func TestEncodeSparseIntoValidation(t *testing.T) {
	code, err := New(NonSystematicCauchy, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	one := [][]byte{make([]byte, 8)}
	dst := GetBuffers(6, 8)
	defer dst.Release()
	cases := []struct {
		name    string
		support []int
		blocks  [][]byte
		dst     [][]byte
	}{
		{"support shorter than blocks", nil, one, dst.Blocks},
		{"index out of range", []int{3}, one, dst.Blocks},
		{"negative index", []int{-1}, one, dst.Blocks},
		{"repeated index", []int{1, 1}, [][]byte{one[0], one[0]}, dst.Blocks},
		{"descending", []int{2, 0}, [][]byte{one[0], one[0]}, dst.Blocks},
		{"ragged blocks", []int{0, 1}, [][]byte{one[0], make([]byte, 7)}, dst.Blocks},
		{"destination count", []int{0}, one, dst.Blocks[:5]},
		{"destination length", []int{0}, [][]byte{make([]byte, 9)}, dst.Blocks},
		{"zero vector, destination count", nil, nil, dst.Blocks[:5]},
		{"zero vector, ragged destination", nil, nil, append(append([][]byte(nil), dst.Blocks[:5]...), make([]byte, 7))},
	}
	for _, tc := range cases {
		if err := code.EncodeSparseInto(tc.support, tc.blocks, tc.dst); err == nil {
			t.Errorf("%s: EncodeSparseInto accepted it", tc.name)
		}
	}
}
