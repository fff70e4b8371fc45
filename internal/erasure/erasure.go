// Package erasure implements the (n,k) linear erasure codes used by SEC:
// systematic and non-systematic MDS constructions over GF(2^8), shard
// encoding of block-striped objects, full decoding from any k shards, and
// sparse decoding of gamma-sparse deltas from 2*gamma shards.
//
// Construction kinds mirror the paper: NonSystematicCauchy is the G_N of
// Example 1 (every square submatrix invertible, so every 2*gamma-row
// submatrix satisfies Criterion 2); SystematicCauchy is the G_S = [I; B] of
// Example 2 (only parity-row submatrices satisfy Criterion 2, limiting
// sparse reads to gamma <= (n-k)/2). Both are MDS: any k rows decode.
package erasure

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"github.com/secarchive/sec/internal/lru"
	"github.com/secarchive/sec/internal/matrix"
	"github.com/secarchive/sec/internal/sparse"
)

// Kind selects the generator construction.
type Kind int

// Generator constructions.
const (
	// NonSystematicCauchy is the paper's G_N: an n x k Cauchy matrix.
	NonSystematicCauchy Kind = iota + 1
	// SystematicCauchy is the paper's G_S = [I_k; B] with Cauchy B.
	SystematicCauchy
)

// String returns the construction name.
func (k Kind) String() string {
	switch k {
	case NonSystematicCauchy:
		return "non-systematic-cauchy"
	case SystematicCauchy:
		return "systematic-cauchy"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Systematic reports whether the construction stores the data blocks
// verbatim in the first k shards.
func (k Kind) Systematic() bool {
	return k == SystematicCauchy
}

// ParseKind maps a construction name (as produced by Kind.String) back to
// its value. Any other name is refused, the two Vandermonde codes an earlier
// release offered included, with an error naming it and the two codes.
func ParseKind(name string) (Kind, error) {
	for _, k := range []Kind{NonSystematicCauchy, SystematicCauchy} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("erasure: unsupported construction kind %q: codes are %q and %q", name, NonSystematicCauchy, SystematicCauchy)
}

// Code is an (n,k) linear erasure code. It is safe for concurrent use.
type Code struct {
	n, k int
	kind Kind
	gen  matrix.Matrix

	inverses *lru.Cache[matrix.Matrix] // decode matrices per row set
	checks   *lru.Cache[matrix.Matrix] // Locate's parity checks per row set
}

// maxCachedInverses bounds the decode-matrix cache; degraded-read patterns
// are few in practice, so a small LRU suffices.
const maxCachedInverses = 256

// maxCachedChecks bounds the parity-check cache: scrub sees few row sets,
// all rows present or one or two nodes down.
const maxCachedChecks = 64

// New constructs an (n,k) code of the given kind. n must exceed k, and the
// construction must fit the field: n+k <= 256 distinct points for the
// non-systematic Cauchy matrix, n <= 256 for the systematic one's B.
func New(kind Kind, n, k int) (*Code, error) {
	if k <= 0 || n <= k {
		return nil, fmt.Errorf("erasure: need n > k > 0, got (n,k)=(%d,%d)", n, k)
	}
	var (
		gen matrix.Matrix
		err error
	)
	switch kind {
	case NonSystematicCauchy:
		gen, err = matrix.Cauchy(n, k)
	case SystematicCauchy:
		var b matrix.Matrix
		b, err = matrix.Cauchy(n-k, k)
		if err == nil {
			gen = matrix.Identity(k).Stack(b)
		}
	default:
		return nil, fmt.Errorf("erasure: unknown construction kind %d", int(kind))
	}
	if err != nil {
		return nil, fmt.Errorf("erasure: building %v(%d,%d): %w", kind, n, k, err)
	}
	return &Code{
		n:        n,
		k:        k,
		kind:     kind,
		gen:      gen,
		inverses: lru.New[matrix.Matrix](maxCachedInverses),
		checks:   lru.New[matrix.Matrix](maxCachedChecks),
	}, nil
}

// N returns the codeword length (number of shards).
func (c *Code) N() int { return c.n }

// K returns the data dimension (number of data blocks).
func (c *Code) K() int { return c.k }

// Kind returns the generator construction.
func (c *Code) Kind() Kind { return c.kind }

// Generator returns a copy of the n x k generator matrix.
func (c *Code) Generator() matrix.Matrix { return c.gen.Clone() }

// Systematic reports whether shards 0..k-1 are the data blocks verbatim.
func (c *Code) Systematic() bool { return c.kind.Systematic() }

// MaxSparseGamma returns the largest sparsity level recoverable with 2*gamma
// reads when all shards are available: floor((k-1)/2) for non-systematic
// codes, additionally capped at floor((n-k)/2) for systematic ones, whose
// Criterion-2 submatrices must come from the parity rows (Section III-C).
func (c *Code) MaxSparseGamma() int {
	g := (c.k - 1) / 2
	if c.Systematic() {
		if cap := (c.n - c.k) / 2; cap < g {
			g = cap
		}
	}
	return g
}

// Encode maps k equally sized data blocks to n coded shards. Shard i is
// sum_j G[i][j]*blocks[j], computed byte-wise; for systematic codes the
// first k shards alias nothing and equal the data blocks.
func (c *Code) Encode(blocks [][]byte) ([][]byte, error) {
	if len(blocks) != c.k {
		return nil, fmt.Errorf("erasure: got %d data blocks, want k=%d", len(blocks), c.k)
	}
	if err := uniformLen(blocks); err != nil {
		return nil, err
	}
	return c.gen.MulBlocks(blocks), nil
}

// EncodeInto is the allocation-free variant of Encode: it writes the n
// coded shards into the caller-provided dst blocks, which must all have the
// input block length and must not alias the inputs. Callers on hot paths
// pair it with GetBuffers/Release to recycle shard buffers.
func (c *Code) EncodeInto(blocks, dst [][]byte) error {
	if len(blocks) != c.k {
		return fmt.Errorf("erasure: got %d data blocks, want k=%d", len(blocks), c.k)
	}
	if err := uniformLen(blocks); err != nil {
		return err
	}
	if err := c.checkDst(dst, c.n, blockLenOf(blocks)); err != nil {
		return err
	}
	c.gen.MulBlocksInto(blocks, dst)
	return nil
}

// EncodeSparseInto is EncodeInto of a vector that is zero outside support,
// without expanding it: blocks[j] is block support[j] of the vector, support
// strictly increasing in [0,k), and shard i is sum_j G[i][support[j]] *
// blocks[j], one generator column per non-zero block. Every dst block is
// overwritten, with zeros throughout when support is empty.
func (c *Code) EncodeSparseInto(support []int, blocks, dst [][]byte) error {
	if err := checkSupport(support, len(blocks), c.k); err != nil {
		return err
	}
	if err := uniformLen(blocks); err != nil {
		return err
	}
	if len(blocks) == 0 {
		if err := c.checkDst(dst, c.n, blockLenOf(dst)); err != nil {
			return err
		}
		for _, d := range dst {
			clear(d) // the zero vector's codeword; pooled dst holds stale bytes
		}
		return nil
	}
	if err := c.checkDst(dst, c.n, blockLenOf(blocks)); err != nil {
		return err
	}
	// No cache keyed by support: the n x gamma selection is a few hundred
	// bytes, next to the gamma*n block products it feeds.
	c.gen.SelectCols(support).MulBlocksInto(blocks, dst)
	return nil
}

// checkSupport validates the support of a sparse vector of dimension k
// with count non-zero blocks.
func checkSupport(support []int, count, k int) error {
	if len(support) != count {
		return fmt.Errorf("erasure: %d support indices for %d blocks", len(support), count)
	}
	prev := -1
	for _, s := range support {
		if s <= prev || s >= k {
			return fmt.Errorf("erasure: support %v is not strictly increasing in [0,%d)", support, k)
		}
		prev = s
	}
	return nil
}

// decodeScratch holds the transient row/shard selection state of one
// DecodeFull(-Into) call: the first-k-distinct pick, a row-indexed seen
// set, and the cache key bytes. Pooled so steady-state decodes do not
// allocate.
type decodeScratch struct {
	pick   []int
	shards [][]byte
	seen   []bool
	key    []byte
}

var decodeScratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

func getDecodeScratch(n int) *decodeScratch {
	sc := decodeScratchPool.Get().(*decodeScratch)
	if cap(sc.seen) < n {
		sc.seen = make([]bool, n)
	}
	sc.seen = sc.seen[:n]
	clear(sc.seen)
	sc.pick = sc.pick[:0]
	sc.shards = sc.shards[:0]
	sc.key = sc.key[:0]
	return sc
}

func putDecodeScratch(sc *decodeScratch) {
	for i := range sc.shards {
		sc.shards[i] = nil // do not retain caller shard data in the pool
	}
	decodeScratchPool.Put(sc)
}

// DecodeFull reconstructs the k data blocks from at least k distinct shards,
// the first k distinct ones given. rows[i] is the shard index (generator
// row) of shards[i].
func (c *Code) DecodeFull(rows []int, shards [][]byte) ([][]byte, error) {
	sc := getDecodeScratch(c.n)
	defer putDecodeScratch(sc)
	if err := c.pickDecodeShards(rows, shards, sc); err != nil {
		return nil, err
	}
	inv, err := c.decodeMatrix(sc)
	if err != nil {
		return nil, err
	}
	return inv.MulBlocks(sc.shards), nil
}

// DecodeFullInto is the allocation-free variant of DecodeFull: it writes
// the k data blocks into the caller-provided dst blocks, which must all
// have the shard block length and must not alias the shards.
func (c *Code) DecodeFullInto(rows []int, shards, dst [][]byte) error {
	sc := getDecodeScratch(c.n)
	defer putDecodeScratch(sc)
	if err := c.pickDecodeShards(rows, shards, sc); err != nil {
		return err
	}
	if err := c.checkDst(dst, c.k, blockLenOf(sc.shards)); err != nil {
		return err
	}
	inv, err := c.decodeMatrix(sc)
	if err != nil {
		return err
	}
	inv.MulBlocksInto(sc.shards, dst)
	return nil
}

// pickDecodeShards validates a DecodeFull input and selects its first k
// distinct shard rows into the scratch.
func (c *Code) pickDecodeShards(rows []int, shards [][]byte, sc *decodeScratch) error {
	if len(rows) != len(shards) {
		return fmt.Errorf("erasure: %d rows but %d shards", len(rows), len(shards))
	}
	if err := c.checkRows(rows); err != nil {
		return err
	}
	if err := uniformLen(shards); err != nil {
		return err
	}
	for i, r := range rows {
		if sc.seen[r] {
			continue
		}
		sc.seen[r] = true
		sc.pick = append(sc.pick, r)
		sc.shards = append(sc.shards, shards[i])
		if len(sc.pick) == c.k {
			return nil
		}
	}
	return fmt.Errorf("erasure: need %d distinct shards to decode, got %d", c.k, len(sc.pick))
}

// checkDst validates an Into-destination: count blocks of blockLen bytes.
func (c *Code) checkDst(dst [][]byte, count, blockLen int) error {
	if len(dst) != count {
		return fmt.Errorf("erasure: got %d destination blocks, want %d", len(dst), count)
	}
	for i, d := range dst {
		if len(d) != blockLen {
			return fmt.Errorf("erasure: destination block %d has %d bytes, want %d", i, len(d), blockLen)
		}
	}
	return nil
}

func blockLenOf(blocks [][]byte) int {
	if len(blocks) == 0 {
		return 0
	}
	return len(blocks[0])
}

// decodeMatrix returns the inverse of the scratch's picked row submatrix,
// cached per row set with LRU eviction: repeated reads through the same
// survivors skip the Gauss-Jordan pass (and, via the byte-key lookup, do
// not allocate), and hot survivor sets stay cached while rare patterns
// churn through the tail of the cache. Note the cache key is
// order-sensitive on purpose - the inverse depends on the shard order the
// caller supplies.
func (c *Code) decodeMatrix(sc *decodeScratch) (matrix.Matrix, error) {
	sc.key = appendRowKey(sc.key[:0], sc.pick)
	if inv, ok := c.inverses.Get(sc.key); ok {
		return inv, nil
	}
	sub := c.gen.SelectRows(sc.pick)
	inv, err := sub.Inverse()
	if err != nil {
		return matrix.Matrix{}, fmt.Errorf("erasure: shard rows %v do not form an invertible submatrix: %w", sc.pick, err)
	}
	c.inverses.Put(string(sc.key), inv)
	return inv, nil
}

func appendRowKey(dst []byte, rows []int) []byte {
	for i, r := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(r), 10)
	}
	return dst
}

// Locate returns the rows whose shards differ from the one codeword lying
// within maxErrors of them, in the order given: none when the shards are a
// codeword. rows[i] is the generator row of shards[i], all distinct, and
// maxErrors is at most (m-k)/2 for m rows: the distance of those rows is
// m-k+1, so within that radius no two codewords lie. The syndrome H*r of the
// row set's cached parity check is zero for a codeword and otherwise H*e for
// the error e, which is its own syndrome when it lies past the first k rows,
// where H is the identity, and is otherwise recovered by the support
// enumerator as a maxErrors-sparse vector (Proposition 1 with Phi = H). When
// no codeword lies within maxErrors, or the search would cost more than m-k+1
// full decodes (sparse.LocateBudget), the answer is sparse.ErrUnrecoverable.
func (c *Code) Locate(rows []int, shards [][]byte, maxErrors int) ([]int, error) {
	m := len(rows)
	if len(shards) != m {
		return nil, fmt.Errorf("erasure: %d rows but %d shards", m, len(shards))
	}
	if m <= c.k || maxErrors < 0 || 2*maxErrors > m-c.k {
		return nil, fmt.Errorf("erasure: %d shards of a k=%d code cannot locate %d errors", m, c.k, maxErrors)
	}
	if err := c.checkRows(rows); err != nil {
		return nil, err
	}
	if err := uniformLen(shards); err != nil {
		return nil, err
	}
	h, err := c.parityCheck(rows)
	if err != nil {
		return nil, err
	}
	blockLen := len(shards[0])
	syndrome := GetBuffers(m-c.k, blockLen)
	defer syndrome.Release()
	h.MulBlocksInto(shards, syndrome.Blocks)
	if at, _ := sparse.Support(syndrome.Blocks); len(at) <= maxErrors {
		for i, r := range at {
			at[i] = rows[c.k+r]
		}
		return at, nil
	}
	support, _, err := sparse.RecoverSupportWithin(h, syndrome.Blocks, maxErrors, sparse.LocateBudget(c.n, c.k, m, blockLen))
	if err != nil {
		return nil, err
	}
	located := make([]int, len(support))
	for i, at := range support {
		located[i] = rows[at]
	}
	return located, nil
}

// parityCheck returns Locate's judge of the given rows, H = [G_R * G_W^-1 | I]
// with W the first k rows and R the rest, cached per row set as the decode
// matrices are.
func (c *Code) parityCheck(rows []int) (matrix.Matrix, error) {
	sc := getDecodeScratch(c.n)
	defer putDecodeScratch(sc)
	sc.key = appendRowKey(sc.key, rows)
	if h, ok := c.checks.Get(sc.key); ok {
		return h, nil
	}
	key := string(sc.key)
	for _, r := range rows {
		if sc.seen[r] {
			return matrix.Matrix{}, fmt.Errorf("erasure: shard row %d given twice", r)
		}
		sc.seen[r] = true
	}
	sc.pick = append(sc.pick, rows[:c.k]...)
	inv, err := c.decodeMatrix(sc)
	if err != nil {
		return matrix.Matrix{}, err
	}
	parity := c.gen.SelectRows(rows[c.k:]).Mul(inv)
	h := matrix.New(len(rows)-c.k, len(rows))
	for i := range parity.Rows() {
		copy(h.Row(i), parity.Row(i))
		h.Set(i, c.k+i, 1)
	}
	c.checks.Put(key, h)
	return h, nil
}

// DecodeSparse recovers a block vector with at most gamma non-zero blocks
// from the given shards, which must correspond to a row set satisfying
// Criterion 2 for gamma (at least 2*gamma rows; see SparseReadRows), by
// enumerating candidate supports.
func (c *Code) DecodeSparse(rows []int, shards [][]byte, gamma int) ([][]byte, error) {
	support, values, err := c.DecodeSparseSupport(rows, shards, gamma)
	if err != nil {
		return nil, err
	}
	return sparse.Expand(c.k, blockLenOf(shards), support, values), nil
}

// DecodeSparseSupport is DecodeSparse for a reader that applies the vector
// rather than looks at it: the indices of the non-zero blocks, ascending,
// and those blocks, without the k - gamma zero blocks around them.
func (c *Code) DecodeSparseSupport(rows []int, shards [][]byte, gamma int) (support []int, values [][]byte, err error) {
	if len(rows) != len(shards) {
		return nil, nil, fmt.Errorf("erasure: %d rows but %d shards", len(rows), len(shards))
	}
	if err := c.checkRows(rows); err != nil {
		return nil, nil, err
	}
	if err := uniformLen(shards); err != nil {
		return nil, nil, err
	}
	if gamma < 0 || 2*gamma > len(rows) {
		return nil, nil, fmt.Errorf("erasure: sparsity %d not decodable from %d shards", gamma, len(rows))
	}
	return sparse.RecoverSupport(c.gen.SelectRows(rows), shards, gamma)
}

// SparseReadRows selects 2*gamma rows from the live shard set whose
// submatrix satisfies Criterion 2, or nil if none exists. The order of live
// is the caller's preference: a reader lists the rows it would rather not
// read - those on slow nodes - last. Every square submatrix of a Cauchy
// matrix is invertible, so any 2*gamma usable rows satisfy Criterion 2 and
// the plan is the first 2*gamma as listed; only parity rows are usable on a
// systematic code.
func (c *Code) SparseReadRows(live []int, gamma int) []int {
	need := 2 * gamma
	if gamma <= 0 || need >= c.k { // sparsity exploitable only when gamma < k/2
		return nil
	}
	// Identity rows cannot appear in a Criterion-2 submatrix of a
	// systematic code (any pair of columns avoiding the 1 is dependent),
	// so only parity rows are candidates there.
	candidates := make([]int, 0, len(live))
	for _, r := range live {
		if (!c.Systematic() || r >= c.k) && !slices.Contains(candidates, r) {
			candidates = append(candidates, r)
		}
	}
	if len(candidates) < need {
		return nil
	}
	return candidates[:need]
}

// Punctured returns the code obtained by dropping the last t shards, the
// storage-reduction device suggested in the paper's future work for
// non-systematic SEC deltas. The result is an (n-t, k) code of the same
// construction; n-t must remain at least k+1 for any fault tolerance.
func (c *Code) Punctured(t int) (*Code, error) {
	if t < 0 || c.n-t <= c.k {
		return nil, fmt.Errorf("erasure: cannot puncture %d of %d shards with k=%d", t, c.n, c.k)
	}
	rows := make([]int, c.n-t)
	for i := range rows {
		rows[i] = i
	}
	return &Code{
		n:        c.n - t,
		k:        c.k,
		kind:     c.kind,
		gen:      c.gen.SelectRows(rows),
		inverses: lru.New[matrix.Matrix](maxCachedInverses),
		checks:   lru.New[matrix.Matrix](maxCachedChecks),
	}, nil
}

// Criterion2RowSets returns every row set of the given size satisfying
// Criterion 2. Used by the resilience analysis to count recovery options
// (15 vs 3 in the paper's Section V-A example).
func (c *Code) Criterion2RowSets(size int) [][]int {
	return c.gen.Criterion2Rows(size)
}

func (c *Code) checkRows(rows []int) error {
	for _, r := range rows {
		if r < 0 || r >= c.n {
			return fmt.Errorf("erasure: shard row %d out of range [0,%d)", r, c.n)
		}
	}
	return nil
}

func uniformLen(blocks [][]byte) error {
	if len(blocks) == 0 {
		return nil
	}
	want := len(blocks[0])
	for i, b := range blocks {
		if len(b) != want {
			return fmt.Errorf("erasure: block %d has %d bytes, want %d", i, len(b), want)
		}
	}
	return nil
}
