package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/secarchive/sec/internal/delta"
	"github.com/secarchive/sec/internal/gf"
	"github.com/secarchive/sec/internal/matrix"
)

var allKinds = []Kind{
	NonSystematicCauchy,
	SystematicCauchy,
}

func randBlocks(rng *rand.Rand, k, blockLen int) [][]byte {
	blocks := make([][]byte, k)
	for i := range blocks {
		blocks[i] = make([]byte, blockLen)
		rng.Read(blocks[i])
	}
	return blocks
}

func sparseBlocks(rng *rand.Rand, k, blockLen, gamma int) [][]byte {
	blocks := make([][]byte, k)
	for i := range blocks {
		blocks[i] = make([]byte, blockLen)
	}
	for _, j := range rng.Perm(k)[:gamma] {
		for delta.Sparsity([][]byte{blocks[j]}) == 0 {
			rng.Read(blocks[j])
		}
	}
	return blocks
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		kind    Kind
		n, k    int
		wantErr bool
	}{
		{"valid cauchy", NonSystematicCauchy, 6, 3, false},
		{"valid systematic", SystematicCauchy, 6, 3, false},
		{"n == k", NonSystematicCauchy, 3, 3, true},
		{"k == 0", NonSystematicCauchy, 3, 0, true},
		{"field exhausted", NonSystematicCauchy, 250, 20, true},
		{"systematic field exhausted", SystematicCauchy, 257, 20, true},
		{"cauchy at the field edge", NonSystematicCauchy, 156, 100, false},
		{"cauchy past the field edge", NonSystematicCauchy, 157, 100, true},
		{"systematic cauchy at the field edge", SystematicCauchy, 256, 100, false},
		{"systematic cauchy past the field edge", SystematicCauchy, 257, 100, true},
		{"unknown kind", Kind(99), 6, 3, true},
		{"retired vandermonde kind", Kind(3), 20, 10, true},
		{"retired systematic vandermonde kind", Kind(4), 10, 5, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, err := New(tt.kind, tt.n, tt.k)
			if (err != nil) != tt.wantErr {
				t.Fatalf("New err = %v, wantErr = %v", err, tt.wantErr)
			}
			if err == nil && (c.N() != tt.n || c.K() != tt.k || c.Kind() != tt.kind) {
				t.Errorf("accessors = (%d,%d,%v), want (%d,%d,%v)", c.N(), c.K(), c.Kind(), tt.n, tt.k, tt.kind)
			}
		})
	}
}

func TestKindString(t *testing.T) {
	for _, kind := range allKinds {
		if kind.String() == "" || kind.String()[0] == 'K' {
			t.Errorf("kind %d has no name", int(kind))
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind String = %q", got)
	}
}

// TestParseKind: the two codes' names parse back to their kinds, and any
// other name, the two Vandermonde codes an earlier release offered
// included, is refused with an error quoting it and the two codes.
func TestParseKind(t *testing.T) {
	for _, tt := range []struct {
		name string
		want Kind // 0: refused
	}{
		{"non-systematic-cauchy", NonSystematicCauchy},
		{"systematic-cauchy", SystematicCauchy},
		{"non-systematic-vandermonde", 0},
		{"systematic-vandermonde", 0},
		{"cauchy", 0},
		{"reed-solomon", 0},
	} {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ParseKind(tt.name)
			if tt.want != 0 {
				if err != nil || got != tt.want {
					t.Errorf("ParseKind(%q) = %v, %v, want %v", tt.name, got, err, tt.want)
				}
				return
			}
			for _, quoted := range []string{tt.name, "non-systematic-cauchy", "systematic-cauchy"} {
				if err == nil || !strings.Contains(err.Error(), `"`+quoted+`"`) {
					t.Errorf("ParseKind(%q) = %v, %v, want an error quoting %q", tt.name, got, err, quoted)
				}
			}
		})
	}
}

// TestAllGeneratorsAreMDS: any k rows of every code decode, which DecodeFull,
// Locate's parity check and scrub's radius of (m-k)/2 rely on. Every k-row
// submatrix is checked at the census shapes, at (14,6) and at the shapes
// TestLocate runs. At the edge of the field, where the k-row submatrices are
// too many to check, the generator is shown to be a Cauchy matrix, or the
// identity over one, every square submatrix of which is invertible, and a
// few k-row submatrices are inverted.
func TestAllGeneratorsAreMDS(t *testing.T) {
	for _, kind := range allKinds {
		for _, shape := range [][2]int{{6, 3}, {8, 4}, {12, 10}, {14, 6}, {14, 8}} {
			c, err := New(kind, shape[0], shape[1])
			if err != nil {
				t.Fatal(err)
			}
			if !c.Generator().IsMDSGenerator() {
				t.Errorf("%v%v generator is not MDS", kind, shape)
			}
		}
	}
	rng := rand.New(rand.NewSource(48))
	for _, shape := range widestShapes {
		c, err := New(shape.kind, shape.n, shape.k)
		if err != nil {
			t.Fatal(err)
		}
		gen, rows := c.Generator(), make([]int, shape.n)
		for i := range rows {
			rows[i] = i
		}
		cauchy := gen
		if c.Systematic() {
			if !gen.SelectRows(rows[:shape.k]).Equal(matrix.Identity(shape.k)) {
				t.Errorf("%v(%d,%d): the first k rows are not the identity", shape.kind, shape.n, shape.k)
			}
			cauchy = gen.SelectRows(rows[shape.k:])
		}
		if !isCauchy(cauchy) {
			t.Errorf("%v(%d,%d): the generator is not the Cauchy matrix it should be", shape.kind, shape.n, shape.k)
		}
		for range 4 {
			if sub := rng.Perm(shape.n)[:shape.k]; !gen.SelectRows(sub).Invertible() {
				t.Errorf("%v(%d,%d): rows %v do not decode", shape.kind, shape.n, shape.k, sub)
			}
		}
	}
}

// isCauchy reports whether entry (i,j) of m is 1/(x_i + y_j) for distinct
// x_i, distinct y_j and no x_i equal to a y_j. The points are read off the
// first row and column: with x_0 = 0, y_j = 1/m[0][j] and x_i = 1/m[i][0] +
// 1/m[0][0], distinct as the first column's and first row's entries are.
func isCauchy(m matrix.Matrix) bool {
	col, row := make(map[byte]bool), make(map[byte]bool)
	for i := range m.Rows() {
		for j := range m.Cols() {
			if m.At(i, j) == 0 {
				return false // no x_i + y_j is infinite
			}
		}
		col[m.At(i, 0)] = true
	}
	for j := range m.Cols() {
		row[m.At(0, j)] = true
	}
	if len(col) != m.Rows() || len(row) != m.Cols() {
		return false
	}
	for i := range m.Rows() {
		for j := range m.Cols() {
			if gf.Inv(m.At(i, j)) != gf.Inv(m.At(i, 0))^gf.Inv(m.At(0, 0))^gf.Inv(m.At(0, j)) {
				return false
			}
		}
	}
	return true
}

func TestSystematicEncodePreservesData(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c, err := New(SystematicCauchy, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	blocks := randBlocks(rng, 5, 16)
	shards, err := c.Encode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !bytes.Equal(shards[i], blocks[i]) {
			t.Errorf("systematic shard %d differs from data block", i)
		}
	}
}

func TestEncodeDecodeFullAllErasurePatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, kind := range allKinds {
		c, err := New(kind, 6, 3)
		if err != nil {
			t.Fatal(err)
		}
		blocks := randBlocks(rng, 3, 8)
		shards, err := c.Encode(blocks)
		if err != nil {
			t.Fatal(err)
		}
		// Every choice of k=3 surviving shards must reconstruct exactly.
		matrix.Combinations(6, 3, func(idx []int) bool {
			rows := append([]int(nil), idx...)
			sub := make([][]byte, 3)
			for i, r := range rows {
				sub[i] = shards[r]
			}
			got, err := c.DecodeFull(rows, sub)
			if err != nil {
				t.Fatalf("%v rows %v: %v", kind, rows, err)
			}
			if !delta.Equal(got, blocks) {
				t.Fatalf("%v rows %v: wrong reconstruction", kind, rows)
			}
			return true
		})
	}
}

func TestDecodeFullWithExtraAndDuplicateShards(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c, err := New(NonSystematicCauchy, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	blocks := randBlocks(rng, 3, 4)
	shards, err := c.Encode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	rows := []int{5, 5, 1, 0, 3}
	sub := [][]byte{shards[5], shards[5], shards[1], shards[0], shards[3]}
	got, err := c.DecodeFull(rows, sub)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Equal(got, blocks) {
		t.Error("wrong reconstruction with duplicates and extras")
	}
}

func TestDecodeFullErrors(t *testing.T) {
	c, err := New(NonSystematicCauchy, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	shard := make([]byte, 4)
	tests := []struct {
		name   string
		rows   []int
		shards [][]byte
	}{
		{"count mismatch", []int{0, 1}, [][]byte{shard}},
		{"too few distinct", []int{0, 0, 0}, [][]byte{shard, shard, shard}},
		{"row out of range", []int{0, 1, 6}, [][]byte{shard, shard, shard}},
		{"ragged shards", []int{0, 1, 2}, [][]byte{shard, shard, make([]byte, 3)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := c.DecodeFull(tt.rows, tt.shards); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestEncodeErrors(t *testing.T) {
	c, err := New(NonSystematicCauchy, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Encode(randBlocks(rand.New(rand.NewSource(1)), 2, 4)); err == nil {
		t.Error("wrong block count: want error")
	}
	if _, err := c.Encode([][]byte{{1}, {2}, {3, 4}}); err == nil {
		t.Error("ragged blocks: want error")
	}
}

func TestDecodeSparseRoundTripAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, kind := range allKinds {
		c, err := New(kind, 20, 10)
		if err != nil {
			t.Fatal(err)
		}
		for gamma := 1; gamma <= c.MaxSparseGamma(); gamma++ {
			z := sparseBlocks(rng, 10, 8, gamma)
			shards, err := c.Encode(z)
			if err != nil {
				t.Fatal(err)
			}
			live := make([]int, c.N())
			for i := range live {
				live[i] = i
			}
			rows := c.SparseReadRows(live, gamma)
			if rows == nil {
				t.Fatalf("%v gamma=%d: no sparse read rows with all shards live", kind, gamma)
			}
			if len(rows) != 2*gamma {
				t.Fatalf("%v gamma=%d: sparse read uses %d rows, want %d", kind, gamma, len(rows), 2*gamma)
			}
			sub := make([][]byte, len(rows))
			for i, r := range rows {
				sub[i] = shards[r]
			}
			got, err := c.DecodeSparse(rows, sub, gamma)
			if err != nil {
				t.Fatalf("%v gamma=%d: %v", kind, gamma, err)
			}
			if !delta.Equal(got, z) {
				t.Fatalf("%v gamma=%d: wrong sparse reconstruction", kind, gamma)
			}
		}
	}
}

func TestDecodeSparseErrors(t *testing.T) {
	c, err := New(NonSystematicCauchy, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	shard := make([]byte, 2)
	tests := []struct {
		name   string
		rows   []int
		shards [][]byte
		gamma  int
	}{
		{"count mismatch", []int{0}, [][]byte{shard, shard}, 1},
		{"row out of range", []int{0, 9}, [][]byte{shard, shard}, 1},
		{"gamma too large for rows", []int{0, 1}, [][]byte{shard, shard}, 2},
		{"negative gamma", []int{0, 1}, [][]byte{shard, shard}, -1},
		{"ragged shards", []int{0, 1}, [][]byte{shard, make([]byte, 3)}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := c.DecodeSparse(tt.rows, tt.shards, tt.gamma); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestMaxSparseGamma(t *testing.T) {
	tests := []struct {
		kind Kind
		n, k int
		want int
	}{
		{NonSystematicCauchy, 6, 3, 1},
		{SystematicCauchy, 6, 3, 1},
		{NonSystematicCauchy, 20, 10, 4},
		{SystematicCauchy, 20, 10, 4},
		{NonSystematicCauchy, 10, 5, 2},
		{SystematicCauchy, 10, 5, 2},
		// Rate > 1/2: systematic sparse reads capped by parity count.
		{NonSystematicCauchy, 12, 10, 4},
		{SystematicCauchy, 12, 10, 1},
	}
	for _, tt := range tests {
		c, err := New(tt.kind, tt.n, tt.k)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.MaxSparseGamma(); got != tt.want {
			t.Errorf("%v(%d,%d).MaxSparseGamma() = %d, want %d", tt.kind, tt.n, tt.k, got, tt.want)
		}
	}
}

func TestSparseReadRowsNonSystematicAnySubset(t *testing.T) {
	c, err := New(NonSystematicCauchy, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Any two live shards suffice for gamma=1.
	matrix.Combinations(6, 2, func(idx []int) bool {
		rows := c.SparseReadRows(append([]int(nil), idx...), 1)
		if len(rows) != 2 {
			t.Errorf("live %v: SparseReadRows = %v, want 2 rows", idx, rows)
		}
		return true
	})
}

func TestSparseReadRowsSystematicNeedsParity(t *testing.T) {
	c, err := New(SystematicCauchy, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		live []int
		want bool
	}{
		{"two parity rows", []int{3, 5}, true},
		{"all parity", []int{3, 4, 5}, true},
		{"one parity only", []int{0, 1, 2, 4}, false},
		{"identity only", []int{0, 1, 2}, false},
		{"mixed with two parity", []int{0, 4, 5}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rows := c.SparseReadRows(tt.live, 1)
			if (rows != nil) != tt.want {
				t.Errorf("SparseReadRows(%v,1) = %v, want usable=%v", tt.live, rows, tt.want)
			}
			for _, r := range rows {
				if r < 3 {
					t.Errorf("systematic sparse read selected identity row %d", r)
				}
			}
		})
	}
}

func TestSparseReadRowsRespectsGammaBounds(t *testing.T) {
	c, err := New(NonSystematicCauchy, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	live := []int{0, 1, 2, 3, 4, 5}
	if rows := c.SparseReadRows(live, 0); rows != nil {
		t.Errorf("gamma=0 should not plan a sparse read, got %v", rows)
	}
	// gamma >= k/2: min(2*gamma, k) = k, no sparse advantage.
	if rows := c.SparseReadRows(live, 2); rows != nil {
		t.Errorf("2*gamma >= k should not plan a sparse read, got %v", rows)
	}
}

// TestSparseReadRowsSatisfyCriterion2 checks the claim SparseReadRows
// rests on: the first 2*gamma usable rows of any live set form a
// Criterion-2 submatrix, so taking them needs no search.
func TestSparseReadRowsSatisfyCriterion2(t *testing.T) {
	for _, kind := range allKinds {
		for _, nk := range [][2]int{{6, 3}, {9, 5}} {
			c, err := New(kind, nk[0], nk[1])
			if err != nil {
				t.Fatal(err)
			}
			for gamma := 1; 2*gamma < c.K(); gamma++ {
				valid := map[string]bool{}
				for _, set := range c.Criterion2RowSets(2 * gamma) {
					valid[fmt.Sprint(set)] = true
				}
				for size := 2 * gamma; size <= c.N(); size++ {
					matrix.Combinations(c.N(), size, func(idx []int) bool {
						live := slices.Clone(idx)
						rows := c.SparseReadRows(live, gamma)
						if rows == nil {
							if !c.Systematic() {
								t.Errorf("%v (%d,%d) live %v gamma %d: no plan", kind, c.N(), c.K(), live, gamma)
							}
							return true
						}
						if !valid[fmt.Sprint(slices.Sorted(slices.Values(rows)))] {
							t.Errorf("%v (%d,%d) live %v gamma %d: rows %v fail Criterion 2", kind, c.N(), c.K(), live, gamma, rows)
						}
						return true
					})
				}
			}
		}
	}
}

func TestCriterion2RowSetsMatchPaper(t *testing.T) {
	gn, err := New(NonSystematicCauchy, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(gn.Criterion2RowSets(2)); got != 15 {
		t.Errorf("non-systematic Criterion-2 sets = %d, want 15", got)
	}
	gs, err := New(SystematicCauchy, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(gs.Criterion2RowSets(2)); got != 3 {
		t.Errorf("systematic Criterion-2 sets = %d, want 3", got)
	}
}

func TestPunctured(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	c, err := New(NonSystematicCauchy, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Punctured(2)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 6 || p.K() != 3 {
		t.Fatalf("punctured shape = (%d,%d), want (6,3)", p.N(), p.K())
	}
	// The punctured code is a row prefix of the original: encoding then
	// truncating matches encoding with the punctured code.
	blocks := randBlocks(rng, 3, 4)
	full, err := c.Encode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	short, err := p.Encode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if !bytes.Equal(full[i], short[i]) {
			t.Errorf("punctured shard %d differs from original", i)
		}
	}
	// Punctured Cauchy remains MDS.
	if !p.Generator().IsMDSGenerator() {
		t.Error("punctured Cauchy generator is not MDS")
	}

	if _, err := c.Punctured(5); err == nil {
		t.Error("puncturing to n<=k: want error")
	}
	if _, err := c.Punctured(-1); err == nil {
		t.Error("negative puncture: want error")
	}
}

func TestDecodeMatrixCacheCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	c, err := New(NonSystematicCauchy, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	blocksA := randBlocks(rng, 3, 4)
	blocksB := randBlocks(rng, 3, 4)
	shardsA, err := c.Encode(blocksA)
	if err != nil {
		t.Fatal(err)
	}
	shardsB, err := c.Encode(blocksB)
	if err != nil {
		t.Fatal(err)
	}
	rows := []int{4, 1, 5}
	// Same survivor set, two different objects: the second decode hits
	// the cached inverse and must still be exact.
	gotA, err := c.DecodeFull(rows, [][]byte{shardsA[4], shardsA[1], shardsA[5]})
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := c.DecodeFull(rows, [][]byte{shardsB[4], shardsB[1], shardsB[5]})
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Equal(gotA, blocksA) || !delta.Equal(gotB, blocksB) {
		t.Error("cached decode mismatch")
	}
	// A different order of the same rows pairs shards differently and
	// must use a different decode matrix.
	gotC, err := c.DecodeFull([]int{1, 4, 5}, [][]byte{shardsA[1], shardsA[4], shardsA[5]})
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Equal(gotC, blocksA) {
		t.Error("reordered decode mismatch")
	}
}

func TestCodeConcurrentUse(t *testing.T) {
	c, err := New(SystematicCauchy, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20; i++ {
				z := sparseBlocks(rng, 5, 8, 2)
				shards, err := c.Encode(z)
				if err != nil {
					t.Error(err)
					return
				}
				rows := c.SparseReadRows([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2)
				sub := make([][]byte, len(rows))
				for i, r := range rows {
					sub[i] = shards[r]
				}
				got, err := c.DecodeSparse(rows, sub, 2)
				if err != nil {
					t.Error(err)
					return
				}
				if !delta.Equal(got, z) {
					t.Error("concurrent decode mismatch")
					return
				}
			}
		}(int64(g))
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

// ascendingPlan is the sparse read plan SparseReadRows chose before it took
// the caller's order into account: the first 2*gamma candidates, sorted.
func ascendingPlan(c *Code, live []int, gamma int) []int {
	need := 2 * gamma
	var candidates []int
	for r := 0; r < c.N(); r++ {
		if slices.Contains(live, r) && (!c.Systematic() || r >= c.K()) {
			candidates = append(candidates, r)
		}
	}
	if gamma <= 0 || need >= c.K() || len(candidates) < need {
		return nil
	}
	return candidates[:need]
}

// TestSparseReadRowsKeepsTheCallersOrder runs every live set of a (10,6)
// code of each kind, at both exploitable sparsities: listed ascending, the
// plan is the one ascendingPlan chose; listed with one row moved last, out of
// ascending order - the order a reader gives a row on a slow node - the plan
// avoids that row whenever the other rows hold a plan of their own. (Moving
// the highest row last leaves the ascending order, whose plan is the first
// case's.)
func TestSparseReadRowsKeepsTheCallersOrder(t *testing.T) {
	const n, k = 10, 6
	for _, kind := range allKinds {
		c, err := New(kind, n, k)
		if err != nil {
			t.Fatal(err)
		}
		for gamma := 1; 2*gamma < k; gamma++ {
			for set := 0; set < 1<<n; set++ {
				var live []int
				for r := 0; r < n; r++ {
					if set&(1<<r) != 0 {
						live = append(live, r)
					}
				}
				if got, want := c.SparseReadRows(live, gamma), ascendingPlan(c, live, gamma); !slices.Equal(got, want) {
					t.Fatalf("%v gamma %d live %v: plan %v, want %v as before", kind, gamma, live, got, want)
				}
				for _, last := range live[:max(len(live)-1, 0)] {
					others := slices.DeleteFunc(slices.Clone(live), func(r int) bool { return r == last })
					if c.SparseReadRows(others, gamma) == nil {
						continue
					}
					if got := c.SparseReadRows(append(others, last), gamma); slices.Contains(got, last) {
						t.Fatalf("%v gamma %d: live %v with %d listed last planned %v, which reads it", kind, gamma, others, last, got)
					}
				}
			}
		}
	}
}
