package matrix

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/secarchive/sec/internal/gf"
)

func randMatrix(rng *rand.Rand, rows, cols int) Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = byte(rng.Intn(256))
		}
	}
	return m
}

func randInvertible(rng *rand.Rand, n int) Matrix {
	for {
		m := randMatrix(rng, n, n)
		if m.Invertible() {
			return m
		}
	}
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 42)
	if got := m.At(1, 2); got != 42 {
		t.Errorf("At(1,2) = %d, want 42", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Errorf("At(0,0) = %d, want 0", got)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1,2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At(2,0) did not panic")
		}
	}()
	m.At(2, 0)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]byte{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("FromRows content mismatch: %v", m)
	}

	if _, err := FromRows([][]byte{{1, 2}, {3}}); err == nil {
		t.Error("FromRows with ragged rows: want error, got nil")
	}

	empty, err := FromRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Rows() != 0 {
		t.Errorf("FromRows(nil).Rows() = %d, want 0", empty.Rows())
	}
}

func TestFromRowsCopies(t *testing.T) {
	src := [][]byte{{1, 2}}
	m, err := FromRows(src)
	if err != nil {
		t.Fatal(err)
	}
	src[0][0] = 99
	if m.At(0, 0) != 1 {
		t.Error("FromRows did not copy its input")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := byte(0)
			if i == j {
				want = 1
			}
			if got := id.At(i, j); got != want {
				t.Errorf("Identity(4)[%d][%d] = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestCauchyEntries(t *testing.T) {
	m, err := Cauchy(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Entry (i,j) must be Inv(i ^ (n+j)).
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			want := gf.Inv(byte(i) ^ byte(3+j))
			if got := m.At(i, j); got != want {
				t.Errorf("Cauchy[%d][%d] = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestCauchyErrors(t *testing.T) {
	tests := []struct {
		name string
		n, k int
	}{
		{"zero rows", 0, 3},
		{"zero cols", 3, 0},
		{"field exhausted", 200, 57},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Cauchy(tt.n, tt.k); err == nil {
				t.Errorf("Cauchy(%d,%d): want error, got nil", tt.n, tt.k)
			}
		})
	}
}

func TestCauchyWithDuplicatePoints(t *testing.T) {
	if _, err := CauchyWith([]byte{1, 2}, []byte{2, 3}); err == nil {
		t.Error("CauchyWith with shared point: want error, got nil")
	}
	if _, err := CauchyWith([]byte{1, 1}, []byte{2}); err == nil {
		t.Error("CauchyWith with duplicate h point: want error, got nil")
	}
}

func TestCauchyEverySquareSubmatrixInvertible(t *testing.T) {
	// The defining property (Lacan-Fimes) behind both SEC criteria.
	m, err := Cauchy(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for size := 1; size <= 4; size++ {
		Combinations(6, size, func(ridx []int) bool {
			rows := append([]int(nil), ridx...)
			Combinations(4, size, func(cidx []int) bool {
				sub := m.SelectRows(rows).SelectCols(cidx)
				if !sub.Invertible() {
					t.Errorf("Cauchy %dx%d submatrix rows=%v cols=%v is singular", size, size, rows, cidx)
				}
				return true
			})
			return true
		})
	}
}

func TestMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		a := randMatrix(rng, 1+rng.Intn(5), 1+rng.Intn(5))
		b := randMatrix(rng, a.Cols(), 1+rng.Intn(5))
		got := a.Mul(b)
		for i := 0; i < a.Rows(); i++ {
			for j := 0; j < b.Cols(); j++ {
				var want byte
				for l := 0; l < a.Cols(); l++ {
					want ^= gf.Mul(a.At(i, l), b.At(l, j))
				}
				if got.At(i, j) != want {
					t.Fatalf("trial %d: product[%d][%d] = %d, want %d", trial, i, j, got.At(i, j), want)
				}
			}
		}
	}
}

func TestMulIdentityLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randMatrix(rng, 4, 6)
	if got := Identity(4).Mul(m); !got.Equal(m) {
		t.Error("I*M != M")
	}
	if got := m.Mul(Identity(6)); !got.Equal(m) {
		t.Error("M*I != M")
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Mul did not panic")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestMulVec(t *testing.T) {
	m, err := FromRows([][]byte{{1, 2, 3}, {0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	x := []byte{5, 6, 7}
	y := m.MulVec(x)
	want0 := gf.Mul(1, 5) ^ gf.Mul(2, 6) ^ gf.Mul(3, 7)
	if y[0] != want0 || y[1] != 6 {
		t.Errorf("MulVec = %v, want [%d 6]", y, want0)
	}
}

func TestMulBlocksMatchesMulVecPerPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randMatrix(rng, 5, 3)
	const blockLen = 16
	blocks := make([][]byte, 3)
	for j := range blocks {
		blocks[j] = make([]byte, blockLen)
		rng.Read(blocks[j])
	}
	out := m.MulBlocks(blocks)
	for pos := 0; pos < blockLen; pos++ {
		x := []byte{blocks[0][pos], blocks[1][pos], blocks[2][pos]}
		y := m.MulVec(x)
		for i := range out {
			if out[i][pos] != y[i] {
				t.Fatalf("MulBlocks[%d][%d] = %d, MulVec gives %d", i, pos, out[i][pos], y[i])
			}
		}
	}
}

func TestMulBlocksRaggedPanics(t *testing.T) {
	m := Identity(2)
	defer func() {
		if recover() == nil {
			t.Fatal("ragged MulBlocks did not panic")
		}
	}()
	m.MulBlocks([][]byte{{1, 2}, {3}})
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(8)
		m := randInvertible(rng, n)
		inv, err := m.Inverse()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !m.Mul(inv).Equal(Identity(n)) {
			t.Fatalf("trial %d: M*M^-1 != I", trial)
		}
		if !inv.Mul(m).Equal(Identity(n)) {
			t.Fatalf("trial %d: M^-1*M != I", trial)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	m, err := FromRows([][]byte{{1, 2}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Inverse(); !errors.Is(err, ErrSingular) {
		t.Errorf("Inverse of singular matrix: err = %v, want ErrSingular", err)
	}
}

func TestInverseNonSquare(t *testing.T) {
	if _, err := New(2, 3).Inverse(); err == nil {
		t.Error("Inverse of non-square matrix: want error")
	}
}

func TestRank(t *testing.T) {
	tests := []struct {
		name string
		rows [][]byte
		want int
	}{
		{"zero matrix", [][]byte{{0, 0}, {0, 0}}, 0},
		{"identity", [][]byte{{1, 0}, {0, 1}}, 2},
		{"duplicate rows", [][]byte{{1, 2, 3}, {1, 2, 3}}, 1},
		{"scaled row (gf)", [][]byte{{1, 2}, {gf.Mul(7, 1), gf.Mul(7, 2)}}, 1},
		{"wide full rank", [][]byte{{1, 0, 5}, {0, 1, 9}}, 2},
		{"tall rank 1", [][]byte{{1}, {2}, {3}}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := FromRows(tt.rows)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Rank(); got != tt.want {
				t.Errorf("Rank = %d, want %d", got, tt.want)
			}
		})
	}
}

// TestIndependentRows pins the split that sparse recovery uses to pick
// the rows it solves on: the first rows, in order, that are independent of
// those before them, at most as many as there are columns.
func TestIndependentRows(t *testing.T) {
	m, err := FromRows([][]byte{
		{1, 2, 3},
		{0, 1, 4},
		{1, 3, 7}, // row 0 + row 1 in GF(2^8)
		{0, 0, 0},
		{0, 0, 9},
		{5, 6, 7}, // past the column count
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, others := m.IndependentRows()
	if !slices.Equal(rows, []int{0, 1, 4}) || !slices.Equal(others, []int{2, 3, 5}) {
		t.Errorf("IndependentRows = %v, %v; want [0 1 4], [2 3 5]", rows, others)
	}

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		r, c := 1+rng.Intn(8), 1+rng.Intn(6)
		m := randMatrix(rng, r, c)
		if rng.Intn(2) == 0 { // make a later row repeat an earlier one
			copy(m.Row(r-1), m.Row(rng.Intn(r)))
		}
		rows, others := m.IndependentRows()
		if len(rows) != m.Rank() {
			t.Fatalf("trial %d: %d independent rows, rank %d", trial, len(rows), m.Rank())
		}
		if got := m.SelectRows(rows).Rank(); got != len(rows) {
			t.Fatalf("trial %d: rows %v have rank %d", trial, rows, got)
		}
		all := slices.Sorted(slices.Values(append(slices.Clone(rows), others...)))
		for i, x := range all {
			if x != i {
				t.Fatalf("trial %d: rows %v and others %v do not split 0..%d", trial, rows, others, r-1)
			}
		}
		if !slices.IsSorted(rows) || !slices.IsSorted(others) {
			t.Fatalf("trial %d: rows %v or others %v out of order", trial, rows, others)
		}
	}
}

func TestSelectRowsAndCols(t *testing.T) {
	m, err := FromRows([][]byte{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	r := m.SelectRows([]int{2, 0})
	if r.At(0, 0) != 7 || r.At(1, 2) != 3 {
		t.Errorf("SelectRows content mismatch: %v", r)
	}
	c := m.SelectCols([]int{1})
	if c.Rows() != 3 || c.Cols() != 1 || c.At(2, 0) != 8 {
		t.Errorf("SelectCols content mismatch: %v", c)
	}
}

func TestSelectRowsIsACopy(t *testing.T) {
	m := Identity(2)
	s := m.SelectRows([]int{0})
	s.Set(0, 0, 77)
	if m.At(0, 0) != 1 {
		t.Error("SelectRows aliases the source matrix")
	}
}

func TestStack(t *testing.T) {
	top := Identity(2)
	bottom, err := FromRows([][]byte{{5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	s := top.Stack(bottom)
	if s.Rows() != 3 || s.At(2, 1) != 6 || s.At(0, 0) != 1 {
		t.Errorf("Stack content mismatch: %v", s)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := Identity(2)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone aliases the source matrix")
	}
}

func TestString(t *testing.T) {
	m, err := FromRows([][]byte{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.String(), "2x2[1 2; 3 4]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
