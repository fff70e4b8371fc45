package erasure

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

// locateShapes are the (n,k) codes TestLocate runs every error pattern of:
// n < 2k and n >= 2k, radius 0 to 3 once a row is absent.
var locateShapes = [][2]int{{6, 3}, {8, 4}, {12, 10}, {14, 8}}

// TestLocate flips a random non-zero byte pattern into every set of at most
// (m-k)/2 of the m present rows of a codeword, on every construction and
// shape, with every row present and with each single row absent, and holds
// Locate to naming exactly the flipped rows - or, beyond the radius the
// rows' distance guarantees (distanceRadius), to refusing them. Every code
// here is MDS, so no rows fall short of their radius and nothing is refused.
// The pattern counts are pinned so that a shape or a radius quietly dropped
// shows up.
func TestLocate(t *testing.T) {
	const blockLen = 32
	patterns, refused := 0, 0
	for _, kind := range allKinds {
		for _, shape := range locateShapes {
			n, k := shape[0], shape[1]
			code, err := New(kind, n, k)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(n*100 + k)))
			codeword, err := code.Encode(randBlocks(rng, k, blockLen))
			if err != nil {
				t.Fatal(err)
			}
			for absent := -1; absent < n; absent++ {
				var rows []int
				for row := range n {
					if row != absent {
						rows = append(rows, row)
					}
				}
				radius, within := (len(rows)-k)/2, distanceRadius(code, rows)
				for errs := 0; errs <= radius; errs++ {
					matrix.Combinations(len(rows), errs, func(idx []int) bool {
						patterns++
						shards := make([][]byte, len(rows))
						for i, row := range rows {
							shards[i] = bytes.Clone(codeword[row])
						}
						var want []int
						for _, i := range idx {
							shards[i][rng.Intn(blockLen)] ^= byte(1 + rng.Intn(255))
							want = append(want, rows[i])
						}
						got, err := code.Locate(rows, shards, radius)
						if errs > within {
							refused++
							if !errors.Is(err, sparse.ErrUnrecoverable) {
								t.Errorf("%v(%d,%d) rows %v, flipped %v beyond the distance: Locate = %v, %v, want ErrUnrecoverable", kind, n, k, rows, want, got, err)
							}
						} else if err != nil || !slices.Equal(got, want) && len(got)+len(want) > 0 {
							t.Errorf("%v(%d,%d) rows %v, flipped %v: Locate = %v, %v", kind, n, k, rows, want, got, err)
						}
						return true
					})
				}
			}
		}
	}
	if patterns != 3854 || refused != 0 {
		t.Errorf("ran %d error patterns, %d of them beyond the distance, want 3854 and 0", patterns, refused)
	}
}

// distanceRadius is the radius Locate may use on the given rows, found the
// long way round: the largest t <= (m-k)/2 for which every m-2t of the rows
// decode, so that no non-zero codeword of the rows has weight 2t or less.
func distanceRadius(code *Code, rows []int) int {
	m, k := len(rows), code.K()
	t := 0
	for ; 2*(t+1) <= m-k; t++ {
		full := true
		matrix.Combinations(m, m-2*(t+1), func(idx []int) bool {
			sub := make([]int, len(idx))
			for i, at := range idx {
				sub[i] = rows[at]
			}
			full = code.gen.SelectRows(sub).Rank() == k
			return full
		})
		if !full {
			break
		}
	}
	return t
}

// TestLocateOwnSyndrome: the parity check is the identity on the rows past
// the first k, so errors there are their own syndrome and are named without
// a search - as many as the radius, where enumerating supports would outgrow
// the budget long before.
func TestLocateOwnSyndrome(t *testing.T) {
	code, err := New(NonSystematicCauchy, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, 40)
	for row := range rows {
		rows[row] = row
	}
	rng := rand.New(rand.NewSource(5))
	codeword, err := code.Encode(randBlocks(rng, 10, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, flipped := range [][]int{{34, 35, 36, 37, 38, 39}, {10, 17, 39}, {25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39}} {
		shards := make([][]byte, len(codeword))
		for row := range shards {
			shards[row] = bytes.Clone(codeword[row])
		}
		for _, row := range flipped {
			shards[row][rng.Intn(8)] ^= byte(1 + rng.Intn(255))
		}
		if got, err := code.Locate(rows, shards, 15); err != nil || !slices.Equal(got, flipped) {
			t.Errorf("flipped %v: Locate = %v, %v", flipped, got, err)
		}
	}
}

// TestLocateRefuses: input Locate cannot judge is an error, never a panic,
// and a search that outgrows its budget is sparse.ErrUnrecoverable.
func TestLocateRefuses(t *testing.T) {
	code, err := New(NonSystematicCauchy, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	codeword, err := code.Encode(randBlocks(rng, 3, 8))
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
		{"negative row", []int{-1, 1, 2, 3, 4}, codeword[:5], 1},
		{"fewer shards than rows", all, codeword[:5], 1},
		{"ragged shards", all[:4], [][]byte{codeword[0], codeword[1], codeword[2], codeword[3][:7]}, 0},
		{"beyond the radius", all, codeword, 2},
		{"negative radius", all, codeword, -1},
	} {
		if got, err := code.Locate(tc.rows, tc.shards, tc.maxErrors); err == nil {
			t.Errorf("%s: Locate = %v, want an error", tc.name, got)
		}
	}

	// Six flips in a (40,10) codeword of 8-byte blocks lie within the
	// radius of 15, but among the first k rows they are not their own
	// syndrome, and finding them would take C(40,6) supports.
	wide, err := New(NonSystematicCauchy, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	codeword, err = wide.Encode(randBlocks(rng, 10, 8))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, 40)
	for row := range rows {
		rows[row] = row
	}
	for _, row := range []int{0, 1, 2, 3, 4, 5} {
		codeword[row][0] ^= 1
	}
	if got, err := wide.Locate(rows, codeword, 15); !errors.Is(err, sparse.ErrUnrecoverable) {
		t.Errorf("six flips in (40,10): Locate = %v, %v, want ErrUnrecoverable", got, err)
	}
}

// FuzzLocate holds Locate to a brute-force oracle (locateOracle) on a seeded
// codeword of any construction, one row possibly absent and a seeded number
// of rows flipped, within or beyond the radius the rows' distance guarantees
// (distanceRadius). The seed corpus lives in testdata/fuzz/FuzzLocate.
func FuzzLocate(f *testing.F) {
	f.Fuzz(func(t *testing.T, kindSel, n, k, absent, flips int, seed int64) {
		kind := allKinds[uint(kindSel)%uint(len(allKinds))]
		k = 1 + int(uint(k)%8)
		n = k + 2 + int(uint(n)%6)               // radius up to 3, within the search budget of blocks of 64 bytes or more
		absent = int(uint(absent)%uint(n+1)) - 1 // -1: every row present
		code, err := New(kind, n, k)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		blockLen := 64 + rng.Intn(64)
		codeword, err := code.Encode(randBlocks(rng, k, blockLen))
		if err != nil {
			t.Fatal(err)
		}
		var rows []int
		var shards [][]byte
		for row := range n {
			if row != absent {
				rows = append(rows, row)
				shards = append(shards, codeword[row])
			}
		}
		if len(rows) <= k {
			return
		}
		for _, i := range rng.Perm(len(rows))[:int(uint(flips)%uint(len(rows)+1))] {
			shards[i][rng.Intn(blockLen)] ^= byte(1 + rng.Intn(255))
		}
		radius := (len(rows) - k) / 2
		want, ok := locateOracle(t, code, rows, shards, distanceRadius(code, rows))
		got, err := code.Locate(rows, shards, radius)
		switch {
		case !ok && !errors.Is(err, sparse.ErrUnrecoverable):
			t.Fatalf("%v(%d,%d) rows %v: no codeword within %d, but Locate = %v, %v", kind, n, k, rows, distanceRadius(code, rows), got, err)
		case ok && (err != nil || !slices.Equal(got, want) && len(got)+len(want) > 0):
			t.Fatalf("%v(%d,%d) rows %v: oracle names %v, Locate = %v, %v", kind, n, k, rows, want, got, err)
		}
	})
}

// locateOracle decodes every k-subset of the given rows that it can,
// re-encodes it, and returns the rows that differ from the first codeword
// within radius of the shards, in the order given; ok is false when none is.
func locateOracle(t *testing.T, code *Code, rows []int, shards [][]byte, radius int) (differ []int, ok bool) {
	k := code.K()
	matrix.Combinations(len(rows), k, func(idx []int) bool {
		window, windowShards := make([]int, k), make([][]byte, k)
		for i, at := range idx {
			window[i], windowShards[i] = rows[at], shards[at]
		}
		data, err := code.DecodeFull(window, windowShards)
		if err != nil {
			t.Fatal(err)
		}
		candidate, err := code.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		differ = differ[:0]
		for i, row := range rows {
			if !bytes.Equal(candidate[row], shards[i]) {
				differ = append(differ, row)
			}
		}
		ok = len(differ) <= radius
		return !ok
	})
	return differ, ok
}

// TestLocateHealthyAllocatesNothing: once the row set's parity check is
// cached, judging a healthy codeword is one product into a pooled syndrome
// and allocates nothing. The race detector empties pools at random, so the
// count is checked in a run without it.
func TestLocateHealthyAllocatesNothing(t *testing.T) {
	code, err := New(NonSystematicCauchy, 12, 10)
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
