package sparse

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/secarchive/sec/internal/gf"
	"github.com/secarchive/sec/internal/matrix"
)

// randSparseBlocks returns k blocks of blockLen bytes with exactly gamma
// non-zero blocks (each non-zero block has at least one non-zero byte).
func randSparseBlocks(rng *rand.Rand, k, blockLen, gamma int) [][]byte {
	return shapedSparseBlocks(rng, k, blockLen, gamma, shapeDense)
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

func TestRecoverEnumRoundTripCauchy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k, blockLen = 10, 8
	g, err := matrix.Cauchy(20, k)
	if err != nil {
		t.Fatal(err)
	}
	for gamma := 0; gamma <= 4; gamma++ {
		for trial := 0; trial < 10; trial++ {
			z := randSparseBlocks(rng, k, blockLen, gamma)
			// Observe through 2*gamma arbitrary rows (Cauchy rows all
			// satisfy Criterion 2).
			rows := rng.Perm(20)[:max(2*gamma, 1)]
			phi := g.SelectRows(rows)
			y := phi.MulBlocks(z)
			got, err := RecoverEnum(phi, y, gamma)
			if err != nil {
				t.Fatalf("gamma=%d trial=%d: %v", gamma, trial, err)
			}
			if !blocksEqual(got, z) {
				t.Fatalf("gamma=%d trial=%d: recovered wrong vector", gamma, trial)
			}
		}
	}
}

func TestRecoverEnumZeroVector(t *testing.T) {
	g, err := matrix.Cauchy(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	phi := g.SelectRows([]int{0, 1})
	z := [][]byte{make([]byte, 4), make([]byte, 4), make([]byte, 4)}
	y := phi.MulBlocks(z)
	got, err := RecoverEnum(phi, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !blocksEqual(got, z) {
		t.Error("zero vector not recovered as zero")
	}
}

// TestRecoverSupportWithin: the budget bounds the search, not the answer. A
// zero observation costs nothing, a search given less than one step answers
// ErrUnrecoverable, and one given enough answers what RecoverSupport does.
func TestRecoverSupportWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := matrix.Cauchy(20, 10)
	if err != nil {
		t.Fatal(err)
	}
	phi := g.SelectRows(rng.Perm(20)[:6])
	if support, _, err := RecoverSupportWithin(phi, phi.MulBlocks(randSparseBlocks(rng, 10, 8, 0)), 3, 0); err != nil || support != nil {
		t.Errorf("zero observations with no budget: support %v, %v", support, err)
	}
	y := phi.MulBlocks(randSparseBlocks(rng, 10, 8, 3))
	if _, _, err := RecoverSupportWithin(phi, y, 3, 0); !errors.Is(err, ErrUnrecoverable) {
		t.Errorf("no budget: %v, want ErrUnrecoverable", err)
	}
	want, _, err := RecoverSupport(phi, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := RecoverSupportWithin(phi, y, 3, LocateBudget(16, 10, 16, 8)); err != nil || !slices.Equal(got, want) {
		t.Errorf("with a budget: support %v, %v, want %v", got, err, want)
	}
}

func TestRecoverEnumPaperExample(t *testing.T) {
	// The (6,3) example of Section IV-C: z2 is 1-sparse with the change in
	// the first block; any 2 rows of the Cauchy generator recover it.
	g, err := matrix.Cauchy(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	z := [][]byte{{0xAB, 0xCD}, {0, 0}, {0, 0}}
	c := g.MulBlocks(z)
	matrix.Combinations(6, 2, func(idx []int) bool {
		phi := g.SelectRows(idx)
		y := [][]byte{c[idx[0]], c[idx[1]]}
		got, err := RecoverEnum(phi, y, 1)
		if err != nil {
			t.Fatalf("rows %v: %v", idx, err)
		}
		if !blocksEqual(got, z) {
			t.Fatalf("rows %v: wrong recovery", idx)
		}
		return true
	})
}

func TestRecoverEnumSystematicParityRows(t *testing.T) {
	// Systematic SEC: only parity-row subsets satisfy Criterion 2; they
	// must still recover the sparse delta.
	b, err := matrix.Cauchy(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	gs := matrix.Identity(3).Stack(b)
	z := [][]byte{{0}, {0x5A}, {0}}
	c := gs.MulBlocks(z)
	for _, rows := range [][]int{{3, 4}, {3, 5}, {4, 5}} {
		phi := gs.SelectRows(rows)
		y := [][]byte{c[rows[0]], c[rows[1]]}
		got, err := RecoverEnum(phi, y, 1)
		if err != nil {
			t.Fatalf("rows %v: %v", rows, err)
		}
		if !blocksEqual(got, z) {
			t.Fatalf("rows %v: wrong recovery", rows)
		}
	}
}

func TestRecoverEnumAmbiguousIdentityRows(t *testing.T) {
	// Two identity rows do NOT satisfy Criterion 2; a 1-sparse vector
	// supported outside the observed rows is indistinguishable from zero,
	// so the decoder returns the zero vector - demonstrating why the
	// paper restricts systematic sparse reads to parity rows.
	gs := matrix.Identity(3).Stack(matrix.New(3, 3))
	z := [][]byte{{0}, {0}, {0x7F}}
	phi := gs.SelectRows([]int{0, 1})
	y := phi.MulBlocks(z)
	got, err := RecoverEnum(phi, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	if blocksEqual(got, z) {
		t.Fatal("identity rows cannot see block 2; recovery should be wrong")
	}
	if !isZero(got[2]) {
		t.Error("expected the (wrong) zero solution")
	}
}

func TestRecoverEnumInconsistentObservations(t *testing.T) {
	g, err := matrix.Cauchy(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	phi := g.SelectRows([]int{0, 1, 2})
	// Random y is (with overwhelming probability) not consistent with any
	// 0- or 1-sparse vector; use a crafted inconsistent one.
	z := [][]byte{{1}, {2}, {3}} // 3-sparse, gamma=1 requested
	y := phi.MulBlocks(z)
	if _, err := RecoverEnum(phi, y, 1); !errors.Is(err, ErrUnrecoverable) {
		t.Errorf("err = %v, want ErrUnrecoverable", err)
	}
}

func TestRecoverEnumArgumentErrors(t *testing.T) {
	g, err := matrix.Cauchy(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	phi := g.SelectRows([]int{0, 1})
	if _, err := RecoverEnum(phi, [][]byte{{1}}, 1); err == nil {
		t.Error("observation count mismatch: want error")
	}
	if _, err := RecoverEnum(phi, [][]byte{{1}, {2, 3}}, 1); err == nil {
		t.Error("ragged observations: want error")
	}
	if _, err := RecoverEnum(phi, [][]byte{{1}, {2}}, -1); err == nil {
		t.Error("negative gamma: want error")
	}
}

func TestRecoverEnumGammaLargerThanNeeded(t *testing.T) {
	// Asking for more sparsity head-room than the true support still
	// returns the true (sparsest) vector first.
	rng := rand.New(rand.NewSource(13))
	g, err := matrix.Cauchy(12, 6)
	if err != nil {
		t.Fatal(err)
	}
	z := randSparseBlocks(rng, 6, 4, 1)
	phi := g.SelectRows([]int{0, 1, 2, 3, 4, 5})
	y := phi.MulBlocks(z)
	got, err := RecoverEnum(phi, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !blocksEqual(got, z) {
		t.Error("wrong recovery with slack gamma")
	}
}

func TestRecoverEnumEmptyBlocks(t *testing.T) {
	g, err := matrix.Cauchy(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	phi := g.SelectRows([]int{0, 1})
	y := [][]byte{{}, {}}
	got, err := RecoverEnum(phi, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got[0]) != 0 {
		t.Errorf("empty-block recovery shape = %v", got)
	}
}

// oracleRecoverEnum is the exhaustive decoder RecoverEnum replaced, kept as the
// reference the search is compared against: every support of size 0..gamma,
// in lexicographic order within a size, gets a Gaussian elimination over the
// whole block width, and the first one that leaves the eliminated rows zero
// wins.
func oracleRecoverEnum(phi matrix.Matrix, y [][]byte, gamma int) ([][]byte, error) {
	m, k := phi.Rows(), phi.Cols()
	blockLen, err := uniformBlockLen(y)
	if err != nil {
		return nil, err
	}
	r := make([][]byte, m)
	for s := 0; s <= gamma && s <= k; s++ {
		var z [][]byte
		matrix.Combinations(k, s, func(support []int) bool {
			a := phi.SelectCols(support)
			for i := range r {
				r[i] = append(r[i][:0], y[i]...)
			}
			rank := 0
			for col := 0; col < s; col++ {
				pivot := -1
				for row := rank; row < m; row++ {
					if a.At(row, col) != 0 {
						pivot = row
						break
					}
				}
				if pivot < 0 {
					return true // dependent support columns
				}
				swapRowsAndBlocks(a, r, pivot, rank)
				inv := gf.Inv(a.At(rank, col))
				gf.MulSliceRef(inv, a.Row(rank), a.Row(rank))
				gf.MulSliceRef(inv, r[rank], r[rank])
				for row := 0; row < m; row++ {
					if f := a.At(row, col); row != rank && f != 0 {
						gf.MulAddSliceRef(f, a.Row(row), a.Row(rank))
						gf.MulAddSliceRef(f, r[row], r[rank])
					}
				}
				rank++
			}
			for row := rank; row < m; row++ {
				for _, v := range r[row] {
					if v != 0 {
						return true
					}
				}
			}
			z = make([][]byte, k)
			for j := range z {
				z[j] = make([]byte, blockLen)
			}
			for i, col := range support {
				copy(z[col], r[i])
			}
			return false
		})
		if z != nil {
			return z, nil
		}
	}
	return nil, ErrUnrecoverable
}

func swapRowsAndBlocks(a matrix.Matrix, r [][]byte, i, j int) {
	ri, rj := a.Row(i), a.Row(j)
	for c := range ri {
		ri[c], rj[c] = rj[c], ri[c]
	}
	r[i], r[j] = r[j], r[i]
}

// Delta shapes of the differential tests: which bytes of a support block are
// non-zero.
const (
	shapeDense      = iota // every byte random
	shapeLastByte          // only the last byte of each support block
	shapeEdit              // a run of up to 64 bytes at an offset of the block's own
	shapeSingleByte        // the first support block dense, every other one a single byte
	shapeCount
)

// shapedSparseBlocks returns k blocks of which exactly gamma (the support,
// ascending) are non-zero, in the given shape.
func shapedSparseBlocks(rng *rand.Rand, k, blockLen, gamma, shape int) [][]byte {
	z := make([][]byte, k)
	for j := range z {
		z[j] = make([]byte, blockLen)
	}
	if blockLen == 0 {
		return z
	}
	support := rng.Perm(k)[:gamma]
	for i, j := range support {
		span := z[j]
		switch {
		case shape == shapeLastByte, shape == shapeSingleByte && i > 0:
			at := blockLen - 1
			if shape == shapeSingleByte {
				at = rng.Intn(blockLen)
			}
			span = span[at : at+1]
		case shape == shapeEdit:
			// Disjoint runs: support block i edits inside the i-th slice of
			// the block.
			slice := max(blockLen/max(gamma, 1), 1)
			lo := min(i*slice, blockLen-1)
			run := min(64, slice, blockLen-lo)
			lo += rng.Intn(min(slice, blockLen-lo) - run + 1)
			span = span[lo : lo+run]
		}
		rng.Read(span)
		span[0] |= 1
	}
	return z
}

// observe builds the decoder input of one differential case: m rows of a
// (n,10) generator - Cauchy, or systematic with its Criterion-2-violating
// identity rows when identity is set - applied to a shaped sparse vector,
// optionally with the last byte of one observation corrupted.
func observe(t testing.TB, rng *rand.Rand, n, m, blockLen, gamma, shape int, identity, corrupt bool) (matrix.Matrix, [][]byte) {
	t.Helper()
	const k = 10
	g, err := matrix.Cauchy(n, k)
	if identity {
		var parity matrix.Matrix
		parity, err = matrix.Cauchy(n-k, k)
		g = matrix.Identity(k).Stack(parity)
	}
	if err != nil {
		t.Fatal(err)
	}
	rows := rng.Perm(n)[:m]
	if identity {
		rows = rows[:0]
		for r := 0; r < m; r++ {
			rows = append(rows, r) // the identity rows come first
		}
	}
	phi := g.SelectRows(rows)
	y := phi.MulBlocks(shapedSparseBlocks(rng, k, blockLen, gamma, shape))
	if corrupt && m > 0 && blockLen > 0 {
		y[rng.Intn(m)][blockLen-1] ^= byte(1 + rng.Intn(255))
	}
	return phi, y
}

// checkAgainstOracle asserts RecoverEnum and the exhaustive oracle agree on
// the input byte for byte: the same vector, or ErrUnrecoverable from both.
func checkAgainstOracle(t testing.TB, phi matrix.Matrix, y [][]byte, gamma int) {
	t.Helper()
	want, wantErr := oracleRecoverEnum(phi, y, gamma)
	got, gotErr := RecoverEnum(phi, y, gamma)
	if (wantErr == nil) != (gotErr == nil) || (gotErr != nil && !errors.Is(gotErr, ErrUnrecoverable)) {
		t.Fatalf("RecoverEnum err = %v, oracle err = %v", gotErr, wantErr)
	}
	if gotErr == nil && !blocksEqual(got, want) {
		t.Fatalf("RecoverEnum returned a different vector than the oracle (%dx%d, gamma %d)", phi.Rows(), phi.Cols(), gamma)
	}
}

// FuzzRecoverEnum compares the probe-filtered decoder with the exhaustive
// oracle over (12,10) and (20,10) row sets, true sparsity 0..k/2, requested
// sparsity below, at and above it, row counts below, at and above 2*gamma,
// and block lengths from 0 to 4096. The seeds are the shapes that stress the
// probe: data only in the last byte, the benchmark's disjoint small edits, a
// block that differs in one byte next to a dense one, an observation corrupted
// in its last byte (the answer must be the oracle's or ErrUnrecoverable,
// never some other vector), and identity rows that see only part of the
// vector.
func FuzzRecoverEnum(f *testing.F) {
	for _, blockLen := range []uint16{0, 1, 7, 63, 64, 4096, 1021} {
		f.Add(int64(blockLen), false, uint8(2), uint8(2), uint8(4), blockLen, uint8(shapeDense), false, false)
		f.Add(int64(blockLen)+1, true, uint8(3), uint8(3), uint8(6), blockLen, uint8(shapeEdit), false, false)
	}
	f.Add(int64(11), false, uint8(3), uint8(3), uint8(6), uint16(4096), uint8(shapeLastByte), false, false)
	f.Add(int64(12), true, uint8(4), uint8(4), uint8(8), uint16(4096), uint8(shapeEdit), false, false)
	f.Add(int64(13), false, uint8(4), uint8(4), uint8(8), uint16(777), uint8(shapeSingleByte), false, false)
	f.Add(int64(14), false, uint8(2), uint8(2), uint8(4), uint16(4096), uint8(shapeDense), false, true)
	f.Add(int64(15), true, uint8(2), uint8(3), uint8(6), uint16(100), uint8(shapeEdit), false, true)
	f.Add(int64(16), true, uint8(1), uint8(1), uint8(2), uint16(64), uint8(shapeDense), true, false)
	f.Add(int64(17), true, uint8(2), uint8(2), uint8(12), uint16(63), uint8(shapeSingleByte), true, false)
	f.Add(int64(18), false, uint8(4), uint8(2), uint8(4), uint16(64), uint8(shapeDense), false, false) // stale gamma
	f.Add(int64(19), true, uint8(1), uint8(5), uint8(10), uint16(7), uint8(shapeLastByte), false, false)
	f.Add(int64(20), false, uint8(0), uint8(3), uint8(6), uint16(64), uint8(shapeDense), false, false)
	f.Fuzz(func(t *testing.T, seed int64, wide bool, gammaTrue, gammaArg, rows uint8, blockLen uint16, shape uint8, identity, corrupt bool) {
		const k = 10
		n := 12
		if wide {
			n = 20
		}
		rng := rand.New(rand.NewSource(seed))
		phi, y := observe(t, rng, n, int(rows)%(n+1), int(blockLen)%4097, int(gammaTrue)%(k/2+1), int(shape)%shapeCount, identity, corrupt)
		checkAgainstOracle(t, phi, y, int(gammaArg)%(k/2+2))
	})
}

// TestRecoverEnumProbeRefinement pins the path on which the probe alone is
// not enough: a support that is consistent with every sampled byte column and
// fails at full width must be rejected there, teach the probe the column that
// exposed it, and leave the answer the oracle's.
func TestRecoverEnumProbeRefinement(t *testing.T) {
	const k, blockLen = 10, 4096
	g, err := matrix.Cauchy(12, k)
	if err != nil {
		t.Fatal(err)
	}
	dense := func(rng *rand.Rand, b []byte) { rng.Read(b); b[0] |= 1 }
	for _, tt := range []struct {
		name string
		fill func(rng *rand.Rand, z [][]byte) // writes the non-zero blocks
		// gamma is the sparsity asked for, rows how many observations are read.
		gamma, rows        int
		wantFalsePositives int
	}{
		{
			// Block 7 differs in one byte that is not the first non-zero
			// byte of its stretch, so every sampled column sees block 2
			// alone: {2} survives the probe and fails on that byte.
			name: "single byte hidden behind a dense block",
			fill: func(rng *rand.Rand, z [][]byte) {
				dense(rng, z[2])
				z[7][1000] = 0x5A
			},
			gamma: 2, rows: 4, wantFalsePositives: 1,
		},
		{
			// Two more blocks each differ only inside a stretch whose first
			// non-zero byte belongs to an earlier block: the probe proposes
			// {1}, then {1,4}, before it has a column from every block.
			name: "one hidden block per refinement",
			fill: func(rng *rand.Rand, z [][]byte) {
				dense(rng, z[1][0:64])
				dense(rng, z[4][100:164])
				dense(rng, z[8][200:250])
			},
			gamma: 3, rows: 6, wantFalsePositives: 2,
		},
		{
			// Disjoint edits in different stretches: the probe has a column
			// from every block before the search starts.
			name: "spread edits need no refinement",
			fill: func(rng *rand.Rand, z [][]byte) {
				dense(rng, z[0][10:74])
				dense(rng, z[3][1500:1564])
				dense(rng, z[9][3000:3064])
			},
			gamma: 3, rows: 6, wantFalsePositives: 0,
		},
	} {
		t.Run(tt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			z := make([][]byte, k)
			for j := range z {
				z[j] = make([]byte, blockLen)
			}
			tt.fill(rng, z)
			rows := make([]int, tt.rows)
			for i := range rows {
				rows[i] = i
			}
			phi := g.SelectRows(rows)
			y := phi.MulBlocks(z)
			support, values, falsePositives, err := recoverEnum(phi, y, tt.gamma, math.MaxInt)
			if err != nil {
				t.Fatal(err)
			}
			if !blocksEqual(Expand(k, blockLen, support, values), z) {
				t.Error("recovered the wrong vector")
			}
			if falsePositives != tt.wantFalsePositives {
				t.Errorf("%d supports passed the probe and failed at full width, want %d", falsePositives, tt.wantFalsePositives)
			}
			checkAgainstOracle(t, phi, y, tt.gamma)
		})
	}
}
