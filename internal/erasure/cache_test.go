package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

// orderedRowKey builds the order-sensitive cache key decodeMatrix uses.
func orderedRowKey(rows []int) string {
	return string(appendRowKey(nil, rows))
}

// decodeMatrixRows runs decodeMatrix on an explicit row pick, standing in
// for the scratch-based hot path in white-box cache tests.
func decodeMatrixRows(code *Code, rows []int) error {
	sc := getDecodeScratch(code.n)
	defer putDecodeScratch(sc)
	sc.pick = append(sc.pick[:0], rows...)
	_, err := code.decodeMatrix(sc)
	return err
}

// TestDecodeMatrixCacheKeepsHotEntries drives decodeMatrix through more
// distinct row sets than the cache holds, re-touching one hot set
// throughout, and checks the hot set survives the churn (the seed's
// overflow policy cleared the whole cache instead).
func TestDecodeMatrixCacheKeepsHotEntries(t *testing.T) {
	code, err := New(NonSystematicCauchy, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	hot := []int{0, 1, 2}
	if err := decodeMatrixRows(code, hot); err != nil {
		t.Fatal(err)
	}
	inserted := 0
	for a := 3; a < 40 && inserted < maxCachedInverses+64; a++ {
		for b := a + 1; b < 40 && inserted < maxCachedInverses+64; b++ {
			for c := b + 1; c < 40 && inserted < maxCachedInverses+64; c++ {
				if err := decodeMatrixRows(code, []int{a, b, c}); err != nil {
					t.Fatal(err)
				}
				inserted++
				if inserted%16 == 0 {
					if err := decodeMatrixRows(code, hot); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if got := code.inverses.Len(); got > maxCachedInverses {
		t.Fatalf("cache grew to %d entries, cap is %d", got, maxCachedInverses)
	}
	if _, ok := code.inverses.Get([]byte(orderedRowKey(hot))); !ok {
		t.Fatal("hot decode matrix was evicted by cold insertions")
	}
}

// TestEncodeIntoDecodeFullIntoRoundTrip checks the Into variants agree with
// the allocating paths and with the original data.
func TestEncodeIntoDecodeFullIntoRoundTrip(t *testing.T) {
	for _, kind := range []Kind{NonSystematicCauchy, SystematicCauchy, NonSystematicVandermonde, SystematicVandermonde} {
		t.Run(kind.String(), func(t *testing.T) {
			const n, k, blockLen = 9, 4, 97
			code, err := New(kind, n, k)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			blocks := make([][]byte, k)
			for i := range blocks {
				blocks[i] = make([]byte, blockLen)
				rng.Read(blocks[i])
			}
			want, err := code.Encode(blocks)
			if err != nil {
				t.Fatal(err)
			}
			shardBufs := GetBuffers(n, blockLen)
			defer shardBufs.Release()
			if err := code.EncodeInto(blocks, shardBufs.Blocks); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !bytes.Equal(want[i], shardBufs.Blocks[i]) {
					t.Fatalf("EncodeInto shard %d differs from Encode", i)
				}
			}
			rows := []int{n - 1, 1, n - 2, 3}
			shards := make([][]byte, len(rows))
			for i, r := range rows {
				shards[i] = shardBufs.Blocks[r]
			}
			dataBufs := GetBuffers(k, blockLen)
			defer dataBufs.Release()
			if err := code.DecodeFullInto(rows, shards, dataBufs.Blocks); err != nil {
				t.Fatal(err)
			}
			for i := range blocks {
				if !bytes.Equal(blocks[i], dataBufs.Blocks[i]) {
					t.Fatalf("DecodeFullInto block %d differs from original", i)
				}
			}
		})
	}
}

// TestEncodeIntoValidation checks the Into variants reject malformed
// destinations instead of panicking deep in the matrix layer.
func TestEncodeIntoValidation(t *testing.T) {
	code, err := New(NonSystematicCauchy, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	blocks := [][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 8)}
	if err := code.EncodeInto(blocks, make([][]byte, 5)); err == nil {
		t.Fatal("EncodeInto accepted wrong destination count")
	}
	badDst := GetBuffers(6, 7)
	defer badDst.Release()
	if err := code.EncodeInto(blocks, badDst.Blocks); err == nil {
		t.Fatal("EncodeInto accepted wrong destination block length")
	}
	dst := GetBuffers(6, 8)
	defer dst.Release()
	if err := code.EncodeInto(blocks[:2], dst.Blocks); err == nil {
		t.Fatal("EncodeInto accepted wrong data block count")
	}
	shards, err := code.Encode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if err := code.DecodeFullInto([]int{0, 1, 2}, shards[:3], dst.Blocks); err == nil {
		t.Fatal("DecodeFullInto accepted wrong destination count")
	}
}
