package erasure

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/secarchive/sec/internal/delta"
	"github.com/secarchive/sec/internal/matrix"
)

var allKinds = []Kind{
	NonSystematicCauchy,
	SystematicCauchy,
	NonSystematicVandermonde,
	SystematicVandermonde,
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
		{"valid vandermonde", NonSystematicVandermonde, 20, 10, false},
		{"valid systematic vandermonde", SystematicVandermonde, 10, 5, false},
		{"n == k", NonSystematicCauchy, 3, 3, true},
		{"k == 0", NonSystematicCauchy, 3, 0, true},
		{"field exhausted", NonSystematicCauchy, 250, 20, true},
		{"cauchy at the field edge", NonSystematicCauchy, 156, 100, false},
		{"cauchy past the field edge", NonSystematicCauchy, 157, 100, true},
		{"systematic cauchy at the field edge", SystematicCauchy, 256, 100, false},
		{"systematic cauchy past the field edge", SystematicCauchy, 257, 100, true},
		{"vandermonde at the field edge", NonSystematicVandermonde, 255, 100, false},
		{"vandermonde past the field edge", NonSystematicVandermonde, 256, 100, true},
		{"unknown kind", Kind(99), 6, 3, true},
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

func TestAllGeneratorsAreMDS(t *testing.T) {
	for _, kind := range allKinds {
		c, err := New(kind, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Generator().IsMDSGenerator() {
			t.Errorf("%v(8,4) generator is not MDS", kind)
		}
	}
}

func TestSystematicEncodePreservesData(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, kind := range []Kind{SystematicCauchy, SystematicVandermonde} {
		c, err := New(kind, 10, 5)
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
				t.Errorf("%v: systematic shard %d differs from data block", kind, i)
			}
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

func TestSparseReadRowsVandermondePrefersWindows(t *testing.T) {
	c, err := New(NonSystematicVandermonde, 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	rows := c.SparseReadRows([]int{7, 2, 3, 9, 4, 5}, 2)
	if want := []int{2, 3, 4, 5}; !reflect.DeepEqual(rows, want) {
		t.Errorf("SparseReadRows = %v, want consecutive window %v", rows, want)
	}
}

func TestSparseReadRowsVandermondeFallbackVerifies(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	c, err := New(NonSystematicVandermonde, 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Non-consecutive live set: the planner must only return row sets that
	// actually satisfy Criterion 2, and decoding through them must work.
	live := []int{0, 2, 5, 9}
	rows := c.SparseReadRows(live, 2)
	if rows == nil {
		t.Skip("no Criterion-2 subset in this live set; nothing to verify")
	}
	if !c.RowsSatisfyCriterion2(rows) {
		t.Fatalf("planner returned rows %v violating Criterion 2", rows)
	}
	z := sparseBlocks(rng, 6, 4, 2)
	shards, err := c.Encode(z)
	if err != nil {
		t.Fatal(err)
	}
	sub := make([][]byte, len(rows))
	for i, r := range rows {
		sub[i] = shards[r]
	}
	got, err := c.DecodeSparse(rows, sub, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Equal(got, z) {
		t.Error("wrong reconstruction through fallback rows")
	}
}

func TestRowsSatisfyCriterion2Caching(t *testing.T) {
	c, err := New(SystematicCauchy, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // repeated queries hit the cache
		if !c.RowsSatisfyCriterion2([]int{4, 3}) {
			t.Error("parity rows must satisfy Criterion 2")
		}
		if c.RowsSatisfyCriterion2([]int{0, 3}) {
			t.Error("identity+parity rows must not satisfy Criterion 2")
		}
	}
}

func TestCanDecodeFull(t *testing.T) {
	c, err := New(NonSystematicCauchy, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !c.CanDecodeFull([]int{5, 1, 3}) {
		t.Error("3 live shards must decode")
	}
	if c.CanDecodeFull([]int{1, 1, 1}) {
		t.Error("1 distinct live shard cannot decode")
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
// the caller's order into account: the candidates sorted, Cauchy codes
// taking the first 2*gamma, Vandermonde codes the first consecutive window
// and else the first subset, in lexicographic order, satisfying Criterion 2.
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
	if c.Kind() == NonSystematicCauchy || c.Kind() == SystematicCauchy {
		return candidates[:need]
	}
	for i := 0; i+need <= len(candidates); i++ {
		if candidates[i+need-1]-candidates[i] == need-1 {
			return candidates[i : i+need]
		}
	}
	var found []int
	matrix.Combinations(len(candidates), need, func(idx []int) bool {
		rows := make([]int, need)
		for i, ci := range idx {
			rows[i] = candidates[ci]
		}
		if c.RowsSatisfyCriterion2(rows) {
			found = rows
			return false
		}
		return true
	})
	return found
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
