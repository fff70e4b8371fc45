package wide

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/secarchive/sec/internal/matrix"
	"github.com/secarchive/sec/internal/sparse"
	"github.com/secarchive/sec/internal/testutil"
)

// TestLocate flips a random non-zero byte into every set of at most (n-k)/2
// rows of a GF(2^16) codeword, every row present, on the shapes the GF(2^8)
// TestLocate runs, and holds Locate to naming exactly the flipped rows. The
// pattern count is pinned so that a shape or a radius quietly dropped shows
// up.
func TestLocate(t *testing.T) {
	const blockLen = 256
	patterns := 0
	for _, shape := range [][2]int{{6, 3}, {8, 4}, {12, 10}, {14, 8}} {
		n, k := shape[0], shape[1]
		code, err := NewCauchy(n, k)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n*100 + k)))
		codeword, err := code.Encode(randBlocks(rng, k, blockLen))
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]int, n)
		for row := range rows {
			rows[row] = row
		}
		radius := (n - k) / 2
		for errs := 0; errs <= radius; errs++ {
			matrix.Combinations(n, errs, func(flipped []int) bool {
				patterns++
				shards := make([][]byte, n)
				for row := range shards {
					shards[row] = bytes.Clone(codeword[row])
				}
				for _, row := range flipped {
					shards[row][rng.Intn(blockLen)] ^= byte(1 + rng.Intn(255))
				}
				got, err := code.Locate(rows, shards, radius)
				if err != nil || !slices.Equal(got, flipped) && len(got)+len(flipped) > 0 {
					t.Errorf("(%d,%d) flipped %v: Locate = %v, %v", n, k, flipped, got, err)
				}
				return true
			})
		}
	}
	if patterns != 527 {
		t.Errorf("ran %d error patterns, want 527", patterns)
	}
}

// TestLocateRefuses: input Locate cannot judge is an error, never a panic.
func TestLocateRefuses(t *testing.T) {
	code, err := NewCauchy(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	codeword, err := code.Encode(randBlocks(rand.New(rand.NewSource(1)), 3, 8))
	if err != nil {
		t.Fatal(err)
	}
	all := []int{0, 1, 2, 3, 4, 5}
	for _, tc := range []struct {
		name      string
		rows      []int
		shards    [][]byte
		maxErrors int
	}{
		{"m = k", all[:3], codeword[:3], 0},
		{"m < k", all[:2], codeword[:2], 0},
		{"duplicate row", []int{0, 1, 2, 3, 3}, [][]byte{codeword[0], codeword[1], codeword[2], codeword[3], codeword[3]}, 1},
		{"duplicate row among the first k", []int{0, 0, 1, 2, 3}, [][]byte{codeword[0], codeword[0], codeword[1], codeword[2], codeword[3]}, 1},
		{"row out of range", []int{0, 1, 2, 3, 6}, codeword[:5], 1},
		{"fewer shards than rows", all, codeword[:5], 1},
		{"odd block length", all[:4], [][]byte{codeword[0][:7], codeword[1][:7], codeword[2][:7], codeword[3][:7]}, 0},
		{"beyond the radius", all, codeword, 2},
		{"negative radius", all, codeword, -1},
	} {
		if got, err := code.Locate(tc.rows, tc.shards, tc.maxErrors); err == nil {
			t.Errorf("%s: Locate = %v, want an error", tc.name, got)
		}
	}
}

// TestLocateOwnSyndrome: errors in the rows past the first k are their own
// syndrome, so Locate names them without a search - up to the radius of 50
// in a (200,100) codeword, where three errors elsewhere outgrow the budget.
func TestLocateOwnSyndrome(t *testing.T) {
	code, err := NewCauchy(200, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	codeword, err := code.Encode(randBlocks(rng, 100, 16))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, 200)
	for row := range rows {
		rows[row] = row
	}
	var last50 []int
	for row := 150; row < 200; row++ {
		last50 = append(last50, row)
	}
	for _, flipped := range [][]int{{197, 198, 199}, last50, {3, 99, 190}} {
		shards := make([][]byte, len(codeword))
		for row := range shards {
			shards[row] = bytes.Clone(codeword[row])
		}
		for _, row := range flipped {
			shards[row][rng.Intn(16)] ^= byte(1 + rng.Intn(255))
		}
		got, err := code.Locate(rows, shards, 50)
		if flipped[0] < 100 {
			if !errors.Is(err, sparse.ErrUnrecoverable) {
				t.Errorf("flipped %v: Locate = %v, %v, want ErrUnrecoverable", flipped, got, err)
			}
		} else if err != nil || !slices.Equal(got, flipped) {
			t.Errorf("flipped %v: Locate = %v, %v", flipped, got, err)
		}
	}
}

// TestLocateHealthyAllocatesNothing: once the row set's parity check is
// cached, judging a healthy codeword works in pooled memory and allocates
// nothing. The race detector empties pools at random, so the count is
// checked in a run without it.
func TestLocateHealthyAllocatesNothing(t *testing.T) {
	code, err := NewCauchy(12, 10)
	if err != nil {
		t.Fatal(err)
	}
	codeword, err := code.Encode(randBlocks(rand.New(rand.NewSource(4)), 10, 4096))
	if err != nil {
		t.Fatal(err)
	}
	rows := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	allocs := testing.AllocsPerRun(100, func() {
		if located, err := code.Locate(rows, codeword, 1); err != nil || len(located) != 0 {
			t.Fatalf("a codeword: Locate = %v, %v", located, err)
		}
	})
	if allocs != 0 && !testutil.RaceEnabled {
		t.Errorf("Locate of a healthy codeword allocates %.1f times, want 0", allocs)
	}
}
